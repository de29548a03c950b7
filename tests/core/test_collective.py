"""Collective query processing (Section 7.2)."""

import random

import pytest

from repro import POI, TARTree, TimeInterval
from repro.core.collective import CollectiveProcessor
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock


def build_tree(n=250, seed=0, tia_backend="memory", tia_buffer_slots=10):
    rng = random.Random(seed)
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        tia_backend=tia_backend,
        tia_buffer_slots=tia_buffer_slots,
    )
    for i in range(n):
        history = {
            e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4
        }
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    return tree


def make_queries(n, seed=0, interval_presets=((0, 12), (3, 9)), k=10):
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        start, end = interval_presets[rng.randrange(len(interval_presets))]
        queries.append(
            KNNTAQuery(
                (rng.random() * 100, rng.random() * 100),
                TimeInterval(start, end),
                k=k,
                alpha0=0.3,
            )
        )
    return queries


def scores(results):
    return [round(r.score, 10) for r in results]


class TestCorrectness:
    def test_matches_individual_results(self):
        tree = build_tree(seed=1)
        queries = make_queries(30, seed=2)
        collective = CollectiveProcessor(tree).run(queries)
        individual = [knnta_search(tree, q) for q in queries]
        for got, expected in zip(collective, individual):
            assert scores(got) == scores(expected)

    def test_single_query_batch(self):
        tree = build_tree(seed=3)
        (result,) = CollectiveProcessor(tree).run(make_queries(1, seed=4))
        assert len(result) == 10

    def test_empty_batch(self):
        tree = build_tree(n=10, seed=5)
        assert CollectiveProcessor(tree).run([]) == []

    def test_empty_tree(self):
        tree = TARTree(
            world=Rect((0.0, 0.0), (1.0, 1.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=1.0,
            tia_backend="memory",
        )
        results = CollectiveProcessor(tree).run(make_queries(3, seed=6))
        assert results == [[], [], []]

    def test_mixed_k_values(self):
        tree = build_tree(seed=7)
        queries = [
            q._replace(k=k) for q, k in zip(make_queries(4, seed=8), (1, 5, 20, 50))
        ]
        results = CollectiveProcessor(tree).run(queries)
        assert [len(r) for r in results] == [1, 5, 20, 50]

    def test_invalid_query_rejected(self):
        tree = build_tree(n=20, seed=9)
        bad = make_queries(1, seed=10)[0]._replace(k=0)
        with pytest.raises(ValueError):
            CollectiveProcessor(tree).run([bad])


class TestSharing:
    def test_shared_accesses_fewer_than_individual(self):
        tree = build_tree(seed=11)
        queries = make_queries(40, seed=12)
        snap = tree.stats.snapshot()
        CollectiveProcessor(tree).run(queries)
        collective_nodes = tree.stats.diff(snap).rtree_nodes
        snap = tree.stats.snapshot()
        tree.query_batch(queries)
        individual_nodes = tree.stats.diff(snap).rtree_nodes
        assert collective_nodes < individual_nodes

    def test_sharing_grows_with_batch_size(self):
        tree = build_tree(seed=13)

        def per_query_nodes(batch_size):
            queries = make_queries(batch_size, seed=14)
            snap = tree.stats.snapshot()
            CollectiveProcessor(tree).run(queries)
            return tree.stats.diff(snap).rtree_nodes / batch_size

        assert per_query_nodes(50) < per_query_nodes(5)

    def test_identical_queries_cost_one_traversal(self):
        tree = build_tree(seed=15)
        query = make_queries(1, seed=16)[0]
        snap = tree.stats.snapshot()
        knnta_search(tree, query)
        single = tree.stats.diff(snap).rtree_nodes
        snap = tree.stats.snapshot()
        CollectiveProcessor(tree).run([query] * 25)
        batch = tree.stats.diff(snap).rtree_nodes
        assert batch == single

    def test_interval_grouping_shares_tia_io(self):
        """Batches over one interval preset do less TIA I/O per query."""
        queries_one = make_queries(30, seed=17, interval_presets=((0, 12),))
        queries_many = make_queries(
            30, seed=17, interval_presets=tuple((i, i + 2) for i in range(10))
        )

        def tia_pages(queries):
            tree = build_tree(seed=18, tia_backend="paged", tia_buffer_slots=0)
            # This test measures the object path's TIA page I/O; the
            # packed frames answer aggregates without any TIA reads.
            tree.frames.disable()
            snap = tree.stats.snapshot()
            CollectiveProcessor(tree).run(queries)
            return tree.stats.diff(snap).tia_pages

        assert tia_pages(queries_one) < tia_pages(queries_many)


class TestProcessIndividually:
    def test_matches_knnta_search(self):
        tree = build_tree(seed=19)
        queries = make_queries(10, seed=20)
        got = tree.query_batch(queries)
        expected = [knnta_search(tree, q) for q in queries]
        for a, b in zip(got, expected):
            assert scores(a) == scores(b)

    def test_unbuffered_tias_cost_more_pages(self):
        queries = make_queries(15, seed=21)

        def pages(slots):
            tree = build_tree(seed=22, tia_backend="paged", tia_buffer_slots=slots)
            tree.frames.disable()  # measuring object-path TIA buffering
            snap = tree.stats.snapshot()
            tree.query_batch(queries)
            return tree.stats.diff(snap).tia_pages

        assert pages(0) >= pages(10)
