"""Service micro-batching: per-rider batches beside collective batches.

The query service coalesces queued same-interval requests into one
batch and runs it as one ``tree.query_batch`` under one read-lock hold:
each rider runs its own best-first search, so the batch amortizes the
lock and the normaliser and costs exactly the node accesses of its
riders run one by one.  The paper's collective processing (Section
7.2, :class:`~repro.core.collective.CollectiveProcessor`) shares node
fetches instead; it counts them as disk pages, while here nodes live
in memory.  At 1, 8 and 64 concurrent queries over one interval preset
this benchmark asserts that the service's answers equal
``tree.query_batch``'s and that its node total equals the individual
total, and reports side by side, alternating which side runs first, the
CPU per query and the node totals of the service batch and of one
collective batch of the same queries (whose answers must be equal too).
No wall-clock bar is set; the series lands in ``BENCH_service.json``
with the host it ran on.  ``REPRO_BENCH_SMOKE=1`` shrinks the fixture
for the CI smoke leg.
"""

import functools
import json
import os
import statistics
import time

from _harness import ROOT, host, print_series
from repro import AccessStats, TARTree, datasets
from repro.core.collective import CollectiveProcessor
from repro.datasets.workload import generate_queries
from repro.service import QueryService, ServiceConfig
from repro.temporal.epochs import TimeInterval

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DATASET = "GS"
SCALE = 0.3 if SMOKE else 1.0
SEED = 42
CONCURRENCY_LEVELS = (1, 8, 64)
INTERVAL_DAYS = 28.0
REPEATS = 3 if SMOKE else 7


@functools.lru_cache(maxsize=None)
def get_data():
    return datasets.make(DATASET, scale=SCALE, seed=SEED)


@functools.lru_cache(maxsize=None)
def get_tree():
    return TARTree.build(get_data())


def make_queries(n):
    """``n`` distinct-point queries sharing one interval preset."""
    data = get_data()
    preset = TimeInterval(data.span_days - INTERVAL_DAYS, data.span_days)
    workload = generate_queries(data, n_queries=n, seed=21)
    return [query._replace(interval=preset) for query in workload]


def run_service_batch(tree, queries):
    """All queries enqueued first, then served: one deterministic batch.

    Returns the answers, the service's stats and the process CPU
    seconds from starting the worker to the last answer.
    """
    config = ServiceConfig(workers=1, batch_size=max(len(queries), 1), linger=0.05)
    service = QueryService(tree, config=config, autostart=False)
    pending = [service.submit(query) for query in queries]
    start = time.process_time()
    service.start()
    results = [request.result(timeout=120) for request in pending]
    cpu = time.process_time() - start
    service.close()
    return results, service.service_stats, cpu


def run_collective_batch(tree, queries):
    """One collective batch: answers, node accesses and CPU seconds."""
    stats = AccessStats()
    start = time.process_time()
    results = CollectiveProcessor(tree).run(queries, stats=stats)
    cpu = time.process_time() - start
    return results, stats.rtree_nodes, cpu


def test_service_batch_costs_its_riders():
    tree = get_tree()
    rows = []
    series = {"individual": [], "service": [], "collective": []}
    for concurrency in CONCURRENCY_LEVELS:
        queries = make_queries(concurrency)
        individual = AccessStats()
        expected = tree.query_batch(queries, stats=individual)

        service_cpu = []
        collective_cpu = []
        for repeat in range(REPEATS):
            sides = ["service", "collective"]
            if repeat % 2:
                sides.reverse()
            for side in sides:
                if side == "service":
                    answers, stats, cpu = run_service_batch(tree, queries)
                    service_nodes = stats.access_totals.rtree_nodes
                    service_cpu.append(cpu)
                    assert answers == expected
                    assert service_nodes == individual.rtree_nodes, (
                        "a batch of %d costs %d nodes, its riders alone %d"
                        % (concurrency, service_nodes, individual.rtree_nodes)
                    )
                else:
                    answers, collective_nodes, cpu = run_collective_batch(
                        tree, queries
                    )
                    collective_cpu.append(cpu)
                    assert answers == expected

        series["individual"].append(float(individual.rtree_nodes))
        series["service"].append(float(service_nodes))
        series["collective"].append(float(collective_nodes))
        rows.append(
            {
                "concurrency": concurrency,
                "individual_nodes": individual.rtree_nodes,
                "service_nodes": service_nodes,
                "collective_nodes": collective_nodes,
                "service_cpu_ms_per_query": (
                    1000.0 * statistics.median(service_cpu) / concurrency
                ),
                "collective_cpu_ms_per_query": (
                    1000.0 * statistics.median(collective_cpu) / concurrency
                ),
                "repeats": REPEATS,
                "batches": stats.batches,
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(stats.batch_size_histogram.items())
                },
                "service_access_totals": stats.access_totals.as_dict(),
            }
        )

    print_series(
        "Service micro-batching (%s): total node accesses vs concurrency" % DATASET,
        "#concurrent",
        CONCURRENCY_LEVELS,
        series,
        fmt="%10.0f",
    )
    for row in rows:
        print(
            "%3d queries  CPU/query %.3f ms service vs %.3f ms collective"
            % (
                row["concurrency"],
                row["service_cpu_ms_per_query"],
                row["collective_cpu_ms_per_query"],
            )
        )

    with open(os.path.join(ROOT, "BENCH_service.json"), "w") as handle:
        json.dump(
            {
                "dataset": DATASET,
                "scale": SCALE,
                "seed": SEED,
                "interval_days": INTERVAL_DAYS,
                "host": host(),
                "levels": rows,
            },
            handle,
            indent=2,
            sort_keys=True,
        )


def test_service_batch_is_one_batch():
    # The deterministic setup really coalesces: one batch, full size.
    concurrency = 8
    _, stats, _ = run_service_batch(get_tree(), make_queries(concurrency))
    assert stats.batches == 1
    assert stats.batch_size_histogram == {concurrency: 1}
