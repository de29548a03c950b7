"""Cluster scatter-gather — shard pruning vs shard count.

The coordinator's pitch is that the per-shard best-possible bound lets
selective queries (small ``k``, distance-heavy ``alpha0``) skip whole
shards without reading a single node from them, while answers stay
exactly equal to the single tree's; a shard that is visited searches
only down to the running k-th score, so its node accesses fall too.
This benchmark sweeps 1/2/4/8 shards over two workloads, asserts
exactness everywhere plus an average of at least one shard pruned per
selective query from four shards up, and emits the series, stamped
with the host, as ``BENCH_cluster.json`` for CI trend tracking.  Each
shard count runs twice: sequentially (``parallelism`` 1, the
in-process default) and with ``parallelism`` equal to the shard count
(the worker-cluster default), where every wave of the two-wave scatter
goes out at once and a shard is cut at the k-th score its query's
best-bound shard left; the pruning bar holds there too.

The dataset is NYC at the harness scale (``BENCH_SCALES``: 510
effective POIs).  Every shard is then two levels deep, so a cut shard
search can skip leaves; at 5% scale every shard is a single leaf and
node accesses only count the shards visited.
"""

import functools
import time

from _harness import BENCH_SCALES, print_series, write_bench
from repro import ClusterTree, TARTree, datasets
from repro.datasets.workload import generate_queries

DATASET = "NYC"
SCALE = BENCH_SCALES[DATASET]
SEED = 42
SHARD_COUNTS = (1, 2, 4, 8)
N_QUERIES = 100

#: Workload presets: the selective one is the acceptance case (small k,
#: distance-dominant alpha0 -> only the nearest shards can reach the
#: top-k); the broad one shows pruning degrades gracefully when the
#: aggregate term keeps distant shards in play.
WORKLOADS = {
    "selective": {"k": 2, "alpha0": 0.95},
    "broad": {"k": 10, "alpha0": 0.3},
}


@functools.lru_cache(maxsize=None)
def get_data():
    return datasets.make(DATASET, scale=SCALE, seed=SEED)


@functools.lru_cache(maxsize=None)
def get_single_tree():
    return TARTree.build(get_data())


@functools.lru_cache(maxsize=None)
def get_cluster(num_shards, parallelism=1):
    return ClusterTree.build(
        get_data(), num_shards=num_shards, parallelism=parallelism
    )


@functools.lru_cache(maxsize=None)
def get_queries(workload):
    params = WORKLOADS[workload]
    return generate_queries(
        get_data(), n_queries=N_QUERIES, seed=17, **params
    )


@functools.lru_cache(maxsize=None)
def expected_answers(workload):
    tree = get_single_tree()
    return [tree.query(query) for query in get_queries(workload)]


def run_workload(cluster, workload):
    """Time the workload; return (answers, per-query metric averages)."""
    queries = get_queries(workload)
    counters_before = cluster.counters()
    snap = cluster.stats.snapshot()
    start = time.perf_counter()
    answers = [cluster.query(query) for query in queries]
    elapsed = time.perf_counter() - start
    delta = cluster.stats.diff(snap)
    counters = cluster.counters()
    n = float(len(queries))
    return answers, {
        "cpu_ms_per_query": 1000.0 * elapsed / n,
        "node_accesses_per_query": delta.rtree_nodes / n,
        "tia_pages_per_query": delta.tia_pages / n,
        "shards_visited_avg": (
            (counters["shards.visited"] - counters_before["shards.visited"]) / n
        ),
        "shards_pruned_avg": (
            (counters["shards.pruned"] - counters_before["shards.pruned"]) / n
        ),
    }


def test_cluster_scaling_prunes_shards(benchmark):
    rows = {name: [] for name in WORKLOADS}
    parallel_rows = {name: [] for name in WORKLOADS}
    pruned_series = {name: [] for name in WORKLOADS}
    nodes_series = {name: [] for name in WORKLOADS}
    parallel_series = {
        "selective pruned": [],
        "selective nodes": [],
        "broad nodes": [],
    }

    for num_shards in SHARD_COUNTS:
        for parallel in (False, True):
            parallelism = num_shards if parallel else 1
            cluster = get_cluster(num_shards, parallelism)
            for workload in WORKLOADS:
                answers, metrics = run_workload(cluster, workload)
                # Exactness first: sharding must never change an answer.
                assert answers == expected_answers(workload), (
                    "%s workload diverged at %d shards, parallelism %d"
                    % (workload, num_shards, parallelism)
                )
                if workload == "selective" and num_shards >= 4:
                    # The acceptance bar: the bound skips at least one
                    # whole shard per selective query on average, at
                    # either dispatch.
                    assert metrics["shards_pruned_avg"] >= 1.0, (
                        "no pruning win at %d shards, parallelism %d: "
                        "%.2f pruned/query"
                        % (num_shards, parallelism, metrics["shards_pruned_avg"])
                    )
                row = dict(metrics, shards=num_shards, parallelism=parallelism)
                if not parallel:
                    rows[workload].append(row)
                    pruned_series[workload].append(metrics["shards_pruned_avg"])
                    nodes_series[workload].append(
                        metrics["node_accesses_per_query"]
                    )
                else:
                    parallel_rows[workload].append(row)
                    parallel_series["%s nodes" % workload].append(
                        metrics["node_accesses_per_query"]
                    )
                    if workload == "selective":
                        parallel_series["selective pruned"].append(
                            metrics["shards_pruned_avg"]
                        )

    print_series(
        "Cluster scatter-gather (%s x%g): shards pruned per query"
        % (DATASET, SCALE),
        "#shards",
        SHARD_COUNTS,
        pruned_series,
        fmt="%10.2f",
    )
    print_series(
        "Cluster scatter-gather (%s x%g): node accesses per query"
        % (DATASET, SCALE),
        "#shards",
        SHARD_COUNTS,
        nodes_series,
        fmt="%10.1f",
    )
    print_series(
        "Cluster scatter-gather (%s x%g), parallelism = #shards: pruned "
        "shards and node accesses per query" % (DATASET, SCALE),
        "#shards",
        SHARD_COUNTS,
        parallel_series,
        fmt="%10.2f",
    )

    write_bench(
        "cluster",
        {
            "dataset": DATASET,
            "scale": SCALE,
            "n_queries": N_QUERIES,
            "workload_params": WORKLOADS,
            "workloads": rows,
            "workloads_parallel": parallel_rows,
        },
    )

    benchmark(
        lambda: [get_cluster(4).query(q) for q in get_queries("selective")]
    )


def test_parallel_dispatch_stays_exact_at_scale():
    # The thread-pool path over the widest configuration: same answers.
    cluster = ClusterTree.build(get_data(), num_shards=8, parallelism=4)
    queries = get_queries("selective")[:25]
    tree = get_single_tree()
    assert [cluster.query(q) for q in queries] == [tree.query(q) for q in queries]
