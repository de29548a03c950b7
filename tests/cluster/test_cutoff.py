"""Shard searches stop at the coordinator's running k-th score.

Every shard the scatter dispatches gets the k-th score held at that
moment as the inclusive ``cutoff`` of its search (docs/CLUSTER.md,
"Early termination").  Answers must stay bit-identical to the single
tree on both transports and at any parallelism, no shard search may
read more nodes than the same search uncut, and the bound pruning must
not move.  The data is ``medium_dataset``: its 4 shards are two levels
deep, so a cut search can skip leaves (single-leaf shards cannot show
a cut).
"""

import math
import random

import pytest

from repro import ClusterTree, KNNTAQuery, TARTree, TimeInterval
from repro.cluster import RemoteShard, Shard
from repro.core.query import Normalizer
from repro.datasets.workload import generate_queries
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from tests.cluster.conftest import open_on
from tests.cluster.test_equivalence import random_queries


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
    search = Shard.query
    monkeypatch.setattr(
        Shard,
        "query",
        lambda self, token, query, normalizer, cutoff: search(
            self, token, query, normalizer, math.inf
        ),
    )
    uncut_answers, uncut_nodes, uncut_pruning = run()
    assert answers == uncut_answers
    assert pruning == uncut_pruning
    assert pruning[1] > 0
    assert nodes < uncut_nodes


def test_remote_query_frame_carries_only_a_finite_cutoff():
    # JSON has no infinity; an absent cutoff reads as uncut worker-side.
    class Recorder:
        def __init__(self):
            self.frames = []

        def request(self, payload, timeout=None):
            self.frames.append(payload)
            return {"ok": True, "results": [], "stats": [0, 0, 0, 0]}

    client = Recorder()
    shard = RemoteShard(0, Rect((0.0, 0.0), (1.0, 1.0)), "shard-0", client)
    query = KNNTAQuery((0.5, 0.5), TimeInterval(0, 9), k=3)
    for cutoff in (0.25, math.inf):
        shard.query(None, query, Normalizer(1.0, 1.0), cutoff)
    cut, uncut = client.frames
    assert cut["op"] == uncut["op"] == "query"
    assert cut["cutoff"] == 0.25
    assert "cutoff" not in uncut
