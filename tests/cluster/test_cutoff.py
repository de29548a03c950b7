"""Shard searches stop at the coordinator's running k-th score.

The scatter runs in two waves (docs/CLUSTER.md, "Early termination"):
each query first searches its best-bound shard uncut, then every other
shard whose bound is below its running k-th score, cut at that score.
Answers must stay bit-identical to the single tree on both transports
and at any parallelism, no shard search may read more nodes than the
same search uncut, a batch must prune and cut per rider, and the
sequential walk must not move.  The data is ``medium_dataset``: its 4
shards are two levels deep, so a cut search can skip leaves
(single-leaf shards cannot show a cut).
"""

import math
import random
from collections import Counter

import pytest

from repro import ClusterTree, KNNTAQuery, ResilienceConfig, TARTree, TimeInterval
from repro.cluster import RemoteShard, Shard
from repro.cluster.resilience import CLOSED
from repro.core.query import Normalizer
from repro.datasets.workload import generate_queries
from repro.reliability.faults import constant
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from tests.cluster.conftest import open_on
from tests.cluster.test_equivalence import random_queries


def paper_riders(dataset, count=16, seed=5):
    """The serving benchmark's mix: broad and selective queries
    alternating, each over its own interval."""
    broad = generate_queries(dataset, count // 2, k=10, alpha0=0.3, seed=seed)
    selective = generate_queries(
        dataset, count // 2, k=2, alpha0=0.95, seed=seed + 1
    )
    return [query for pair in zip(broad, selective) for query in pair]


@pytest.mark.timeout(300)
@pytest.mark.parametrize("parallelism", [1, 2])
def test_cut_scatter_equals_single_tree(
    transport, parallelism, medium_dataset, tmp_path
):
    single = TARTree.build(medium_dataset)
    # The same plan in process: its shard trees search uncut for the
    # per-shard reference (worker shards reload this exact layout).
    twin = ClusterTree.build(medium_dataset, num_shards=4)
    assert all(shard.tree.height >= 2 for shard in twin.shards)
    queries = random_queries(single, random.Random(23), count=24)
    cut_nodes = uncut_nodes = 0
    with open_on(
        transport, medium_dataset, tmp_path / "c", parallelism=parallelism
    ) as cluster:
        for query in queries:
            answer, cost = cluster.explain(query)
            assert answer == single.query(query), query
            normalizer = cluster.normalizer(query.interval, query.semantics)
            for shard in twin.shards:
                key = "shards.%d.rtree_nodes" % shard.index
                if key not in cost:  # pruned or empty
                    continue
                uncut = AccessStats()
                shard.tree.query(query, normalizer, uncut)
                assert cost[key] <= uncut.rtree_nodes, (query, shard.index)
                cut_nodes += cost[key]
                uncut_nodes += uncut.rtree_nodes
    twin.close()
    assert cut_nodes < uncut_nodes


def test_cut_reads_fewer_nodes_and_prunes_the_same(medium_dataset, monkeypatch):
    # Broad queries (k=10, the aggregate term in play) visit most
    # shards, so later shards start with a k-th score in hand.
    queries = generate_queries(
        medium_dataset, n_queries=40, k=10, alpha0=0.3, seed=17
    )

    def run():
        cluster = ClusterTree.build(medium_dataset, num_shards=4)
        stats = AccessStats()
        answers = [cluster.query(query, stats=stats) for query in queries]
        counters = cluster.counters()
        cluster.close()
        return answers, stats.rtree_nodes, (
            counters["shards.visited"], counters["shards.pruned"]
        )

    answers, nodes, pruning = run()
    search = Shard.batch
    monkeypatch.setattr(
        Shard,
        "batch",
        lambda self, token, queries, normalizers, cutoffs: search(
            self, token, queries, normalizers, [math.inf] * len(cutoffs)
        ),
    )
    uncut_answers, uncut_nodes, uncut_pruning = run()
    assert answers == uncut_answers
    assert pruning == uncut_pruning
    assert pruning[1] > 0
    assert nodes < uncut_nodes


def test_sequential_walk_reads_the_recorded_counts(medium_dataset):
    # At parallelism 1 a lone query visits its shards best-bound-first,
    # each cut at the k-th score held when it goes out.  The totals were
    # recorded from the one-wave scatter that sent every query on its
    # own: the two-wave scatter must visit, prune and read exactly as
    # much, query by query.
    single = TARTree.build(medium_dataset)
    queries = (
        list(generate_queries(medium_dataset, 20, k=10, alpha0=0.3, seed=17))
        + list(generate_queries(medium_dataset, 20, k=2, alpha0=0.95, seed=17))
        + random_queries(single, random.Random(23), count=20)
    )
    cluster = ClusterTree.build(medium_dataset, num_shards=4)
    nodes = visited = pruned = 0
    for query in queries:
        answer, cost = cluster.explain(query)
        assert answer == single.query(query), query
        assert cost["shards.visited"] + cost["shards.pruned"] == 4
        nodes += cost["rtree_nodes"]
        visited += cost["shards.visited"]
        pruned += cost["shards.pruned"]
    cluster.close()
    assert (nodes, visited, pruned) == (424, 158, 82)


@pytest.mark.timeout(300)
def test_batch_riders_are_pruned_and_cut_per_rider(
    transport, medium_dataset, tmp_path, monkeypatch
):
    # A service batch on a worker cluster: 16 riders over 16 intervals
    # at parallelism equal to the shard count.  Each rider prunes and
    # cuts shards on its own bounds and k-th score, exactly as when it
    # is asked alone, and reads fewer nodes than searching every shard
    # uncut.
    single = TARTree.build(medium_dataset)
    twin = ClusterTree.build(medium_dataset, num_shards=4)
    riders = paper_riders(medium_dataset)
    assert len({rider.interval for rider in riders}) == len(riders)
    endpoint = Shard if transport == "inproc" else RemoteShard
    carried = Counter()
    send = endpoint.batch

    def counted(self, token, queries, *options):
        carried.update(id(query) for query in queries)
        return send(self, token, queries, *options)

    with open_on(
        transport, medium_dataset, tmp_path / "c", parallelism=4
    ) as cluster:
        alone = [cluster.explain(rider)[1] for rider in riders]
        monkeypatch.setattr(endpoint, "batch", counted)
        stats = AccessStats()
        before = cluster.counters()
        answers = cluster.query_batch(riders, stats=stats)
        after = cluster.counters()
        normalizers = [
            cluster.normalizer(rider.interval, rider.semantics) for rider in riders
        ]
    for rider, answer in zip(riders, answers):
        assert answer == single.query(rider), rider
    uncut = AccessStats()
    for rider, normalizer in zip(riders, normalizers):
        for shard in twin.shards:
            shard.tree.query(rider, normalizer, uncut)
    twin.close()
    assert stats.rtree_nodes < uncut.rtree_nodes
    shards = len(twin.shards)  # every shard holds POIs
    for rider, cost in zip(riders, alone):
        assert carried[id(rider)] == cost["shards.visited"], rider
        assert cost["shards.visited"] + cost["shards.pruned"] == shards
    assert after["queries"] - before["queries"] == len(riders)
    assert after["shards.visited"] - before["shards.visited"] == sum(
        cost["shards.visited"] for cost in alone
    )
    pruned = after["shards.pruned"] - before["shards.pruned"]
    assert pruned == sum(cost["shards.pruned"] for cost in alone)
    assert pruned > 0


def best_shard(cluster, query):
    """The shard wave 1 sends ``query`` to: its lowest bound."""
    normalizer = cluster.normalizer(query.interval, query.semantics)
    bounds = {
        shard.index: cluster._shard_bound(shard, query, normalizer)
        for shard in cluster.shards
    }
    return min(bounds, key=lambda index: (bounds[index], index))


@pytest.mark.timeout(300)
def test_a_failing_shard_is_called_once_per_scatter(
    transport, medium_dataset, tmp_path
):
    # A shard that is some riders' best bound fails in wave 1; the
    # riders still owed it in wave 2 prune or miss it without calling it
    # again.  Its failures are transient, nothing is retried and the
    # breaker stays closed, so every attempt to reach the shard counts
    # one guard call.
    riders = paper_riders(medium_dataset)
    keep_calling = ResilienceConfig(
        sleep=lambda _: None, max_retries=0, failure_threshold=10**6
    )
    with open_on(
        transport,
        medium_dataset,
        tmp_path / "c",
        parallelism=4,
        resilience=keep_calling,
        allow_degraded=True,
    ) as cluster:
        healthy = [cluster.explain(rider)[1] for rider in riders]
        best = [best_shard(cluster, rider) for rider in riders]
        dead = best[0]
        key = "shards.%d.rtree_nodes" % dead
        assert any(
            shard != dead and key in cost for shard, cost in zip(best, healthy)
        ), "no rider is owed the failing shard in wave 2"
        if transport == "inproc":
            cluster.injector.configure(
                "shard.%d.query" % dead, schedule=constant(1.0)
            )
        else:
            cluster.shards[dead].handle.kill()
        guard = cluster._guards[dead]
        for rider in riders:
            calls = guard.calls
            cluster.query(rider)
            assert guard.calls - calls <= 1
        calls = guard.calls
        before = cluster.counters()
        cluster.query_batch(riders)
        after = cluster.counters()
        assert guard.calls - calls == 1
        assert guard.breaker.state == CLOSED
    delta = {key: after[key] - before[key] for key in after}
    shards = len(cluster.shards)
    assert delta["shards.visited"] + delta["shards.pruned"] + delta[
        "shards.failed"
    ] == shards * len(riders)
    assert delta["shards.failed"] >= best.count(dead)
    assert delta["shards.pruned"] > 0


def test_remote_batch_rider_carries_only_a_finite_cutoff():
    # JSON has no infinity; a rider without a cutoff reads as uncut
    # worker-side.
    class Recorder:
        def __init__(self):
            self.frames = []

        def request(self, payload, timeout=None):
            self.frames.append(payload)
            return {
                "ok": True,
                "results": [[] for _ in payload["queries"]],
                "stats": [0, 0, 0, 0],
            }

    client = Recorder()
    shard = RemoteShard(0, Rect((0.0, 0.0), (1.0, 1.0)), "shard-0", client)
    query = KNNTAQuery((0.5, 0.5), TimeInterval(0, 9), k=3)
    normalizers = {(query.interval, query.semantics): Normalizer(1.0, 1.0)}
    shard.batch(None, [query, query], normalizers, [0.25, math.inf])
    (frame,) = client.frames
    assert frame["op"] == "batch"
    cut, uncut = frame["queries"]
    assert cut["cutoff"] == 0.25
    assert "cutoff" not in uncut
