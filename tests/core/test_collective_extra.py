"""Additional collective-processing coverage: greedy order, edge shapes."""

import random

import pytest

from repro import POI, TARTree, TimeInterval
from repro.core.collective import CollectiveProcessor
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import IntervalSemantics


def build_tree(n=200, seed=0, node_size=512):
    rng = random.Random(seed)
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        node_size=node_size,
        tia_backend="memory",
    )
    for i in range(n):
        history = {
            e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4
        }
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    return tree


def scores(results):
    return [round(r.score, 10) for r in results]


class TestBatchShapes:
    def test_batch_with_k_exceeding_tree_size(self):
        tree = build_tree(n=20, seed=1)
        queries = [
            KNNTAQuery((10.0 * i, 10.0 * i), TimeInterval(0, 12), k=500)
            for i in range(5)
        ]
        results = CollectiveProcessor(tree).run(queries)
        for per_query in results:
            assert len(per_query) == 20

    def test_mixed_semantics_grouped_separately(self):
        tree = build_tree(seed=2)
        base = KNNTAQuery((40.0, 40.0), TimeInterval(2.2, 9.7), k=10)
        queries = [
            base,
            base._replace(semantics=IntervalSemantics.CONTAINED),
            base,
        ]
        collective = CollectiveProcessor(tree).run(queries)
        individual = [knnta_search(tree, q) for q in queries]
        for got, expected in zip(collective, individual):
            assert scores(got) == scores(expected)
        # INTERSECTS and CONTAINED genuinely disagree on this interval.
        assert scores(collective[0]) != scores(collective[1])

    def test_duplicate_query_objects_share_everything(self):
        tree = build_tree(seed=3)
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 12), k=10)
        snap = tree.stats.snapshot()
        results = CollectiveProcessor(tree).run([query] * 100)
        nodes = tree.stats.diff(snap).rtree_nodes
        assert len(results) == 100
        assert all(scores(r) == scores(results[0]) for r in results)
        snap = tree.stats.snapshot()
        knnta_search(tree, query)
        single = tree.stats.diff(snap).rtree_nodes
        assert nodes == single

    def test_heterogeneous_alpha_same_interval_share_aggregates(self):
        """Different weights over one interval still share TIA work."""
        tree = TARTree(
            world=Rect((0.0, 0.0), (100.0, 100.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=12.0,
            node_size=512,
            tia_backend="paged",
            tia_buffer_slots=0,
        )
        rng = random.Random(4)
        for i in range(200):
            history = {
                e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4
            }
            tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
        interval = TimeInterval(0, 12)
        queries = [
            KNNTAQuery((50.0, 50.0), interval, k=10, alpha0=a)
            for a in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        # Comparing object-path TIA page costs; frames would zero both.
        tree.frames.disable()
        snap = tree.stats.snapshot()
        collective = CollectiveProcessor(tree).run(queries)
        shared_pages = tree.stats.diff(snap).tia_pages
        snap = tree.stats.snapshot()
        individual = tree.query_batch(queries)
        individual_pages = tree.stats.diff(snap).tia_pages
        for got, expected in zip(collective, individual):
            assert scores(got) == scores(expected)
        assert shared_pages < individual_pages

    def test_greedy_never_starves_a_lonely_query(self):
        """A query demanding an unpopular corner still completes."""
        tree = build_tree(seed=5)
        popular = [
            KNNTAQuery((50.0, 50.0), TimeInterval(0, 12), k=5) for _ in range(30)
        ]
        lonely = KNNTAQuery((0.5, 99.5), TimeInterval(0, 12), k=5, alpha0=0.95)
        results = CollectiveProcessor(tree).run(popular + [lonely])
        assert len(results[-1]) == 5
        assert scores(results[-1]) == scores(knnta_search(tree, lonely))
