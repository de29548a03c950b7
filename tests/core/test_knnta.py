"""kNNTA query processing: BFS correctness against the scan ground truth."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import POI, TARTree, TimeInterval
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery
from repro.core.scan import full_ranking, sequential_scan
from repro.datasets.workload import generate_queries
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import IntervalSemantics


def build_tree(pois, strategy="integral3d", epochs=12):
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=float(epochs),
        strategy=strategy,
        tia_backend="memory",
    )
    for poi_id, x, y, history in pois:
        tree.insert_poi(POI(poi_id, x, y), history)
    return tree


def random_pois(n, seed, epochs=12):
    rng = random.Random(seed)
    return [
        (
            i,
            rng.random() * 100,
            rng.random() * 100,
            {
                e: rng.randrange(1, 8)
                for e in range(epochs)
                if rng.random() < 0.4
            },
        )
        for i in range(n)
    ]


def scores(results):
    return [round(r.score, 10) for r in results]


class TestAgainstScan:
    @pytest.mark.parametrize("strategy", ["integral3d", "spatial", "aggregate"])
    @pytest.mark.parametrize("alpha0", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_scan_across_weights(self, strategy, alpha0):
        tree = build_tree(random_pois(250, seed=1), strategy)
        query = KNNTAQuery((40.0, 60.0), TimeInterval(2, 9), k=15, alpha0=alpha0)
        assert scores(knnta_search(tree, query)) == scores(
            sequential_scan(tree, query)
        )

    @pytest.mark.parametrize("k", [1, 5, 10, 50, 100])
    def test_matches_scan_across_k(self, k):
        tree = build_tree(random_pois(250, seed=2))
        query = KNNTAQuery((10.0, 10.0), TimeInterval(0, 12), k=k)
        assert scores(knnta_search(tree, query)) == scores(
            sequential_scan(tree, query)
        )

    def test_contained_semantics(self):
        tree = build_tree(random_pois(200, seed=3))
        query = KNNTAQuery(
            (50.0, 50.0),
            TimeInterval(2.5, 9.5),
            k=10,
            semantics=IntervalSemantics.CONTAINED,
        )
        assert scores(knnta_search(tree, query)) == scores(
            sequential_scan(tree, query)
        )

    def test_exact_normalizer(self):
        tree = build_tree(random_pois(200, seed=4))
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 12), k=10)
        normalizer = tree.normalizer(query.interval, exact=True)
        bfs = knnta_search(tree, query, normalizer=normalizer)
        scan = sequential_scan(tree, query, normalizer=normalizer)
        assert scores(bfs) == scores(scan)
        # With the exact normaliser the best aggregate reaches exactly 1.
        assert max(r.aggregate for r in full_ranking(tree, query, normalizer)) == 1.0


class TestResultShape:
    def test_scores_non_decreasing(self):
        tree = build_tree(random_pois(300, seed=5))
        query = KNNTAQuery((30.0, 30.0), TimeInterval(0, 12), k=40)
        results = knnta_search(tree, query)
        values = [r.score for r in results]
        assert values == sorted(values)

    def test_k_capped_by_size(self):
        tree = build_tree(random_pois(7, seed=6))
        query = KNNTAQuery((1.0, 1.0), TimeInterval(0, 12), k=99)
        assert len(knnta_search(tree, query)) == 7

    def test_unique_results(self):
        tree = build_tree(random_pois(120, seed=7))
        query = KNNTAQuery((1.0, 1.0), TimeInterval(0, 12), k=50)
        ids = [r.poi_id for r in knnta_search(tree, query)]
        assert len(ids) == len(set(ids))

    def test_result_components_consistent(self):
        tree = build_tree(random_pois(120, seed=8))
        query = KNNTAQuery((25.0, 75.0), TimeInterval(3, 8), k=20, alpha0=0.4)
        for r in knnta_search(tree, query):
            assert r.score == pytest.approx(
                0.4 * r.distance + 0.6 * (1 - r.aggregate)
            )
            assert 0 <= r.distance <= 1
            assert 0 <= r.aggregate <= 1

    def test_invalid_parameters(self):
        tree = build_tree(random_pois(10, seed=9))
        with pytest.raises(ValueError):
            knnta_search(tree, KNNTAQuery((0, 0), TimeInterval(0, 1), k=0))
        with pytest.raises(ValueError):
            knnta_search(
                tree, KNNTAQuery((0, 0), TimeInterval(0, 1), k=1, alpha0=0.0)
            )
        with pytest.raises(ValueError):
            knnta_search(
                tree, KNNTAQuery((0, 0), TimeInterval(0, 1), k=1, alpha0=1.0)
            )


class TestNodeAccessAccounting:
    def test_counts_accumulate_per_query(self):
        tree = build_tree(random_pois(300, seed=10))
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 12), k=10)
        snap = tree.stats.snapshot()
        knnta_search(tree, query)
        delta = tree.stats.diff(snap)
        assert delta.rtree_nodes >= 1
        assert delta.rtree_nodes <= tree.node_count()

    def test_larger_k_accesses_at_least_as_many_nodes(self):
        tree = build_tree(random_pois(400, seed=11))
        query_point = (50.0, 50.0)
        interval = TimeInterval(0, 12)

        def nodes_for(k):
            snap = tree.stats.snapshot()
            knnta_search(tree, KNNTAQuery(query_point, interval, k=k))
            return tree.stats.diff(snap).rtree_nodes

        assert nodes_for(1) <= nodes_for(20) <= nodes_for(100)

    def test_scan_uses_no_rtree_nodes(self):
        tree = build_tree(random_pois(100, seed=12))
        snap = tree.stats.snapshot()
        sequential_scan(tree, KNNTAQuery((5.0, 5.0), TimeInterval(0, 12), k=5))
        assert tree.stats.diff(snap).rtree_nodes == 0


class TestCutoff:
    """``tree.query(query, cutoff=c)`` is the uncut answer without its
    rows scoring above ``c``, read from no more nodes than the uncut
    search — on the packed-frame path and the object path alike."""

    @pytest.fixture(params=["packed", "object"])
    def tree(self, request, medium_dataset):
        tree = TARTree.build(medium_dataset)
        assert tree.height >= 2
        if request.param == "object":
            tree.frames.disable()
        return tree

    @staticmethod
    def queries(dataset):
        # Selective to broad: small k near the point, large k with the
        # aggregate term in play.
        return [
            query
            for k, alpha0 in ((1, 0.95), (3, 0.7), (10, 0.3), (25, 0.05))
            for query in generate_queries(
                dataset, n_queries=12, k=k, alpha0=alpha0, seed=k
            )
        ]

    def test_cut_answer_is_the_uncut_rows_at_or_below_the_cutoff(
        self, tree, medium_dataset
    ):
        saved = 0
        for query in self.queries(medium_dataset):
            uncut_stats = AccessStats()
            uncut = tree.query(query, stats=uncut_stats)
            scores = [row.score for row in uncut]
            between = [(a + b) / 2 for a, b in zip(scores, scores[1:]) if a < b]
            cutoffs = [
                scores[len(scores) // 2],  # a row's exact score: kept
                math.nextafter(scores[0], -math.inf),  # below the best row
                math.inf,
            ] + between[:1]
            for cutoff in cutoffs:
                stats = AccessStats()
                cut = tree.query(query, stats=stats, cutoff=cutoff)
                assert cut == [row for row in uncut if row.score <= cutoff], (
                    query, cutoff
                )
                assert stats.rtree_nodes <= uncut_stats.rtree_nodes
                if cutoff == math.inf:
                    assert stats.snapshot() == uncut_stats.snapshot()
                saved += uncut_stats.rtree_nodes - stats.rtree_nodes
        assert saved > 0, "no cutoff ever stopped a search early"

    def test_cutoff_below_every_row_reads_only_the_root(self, tree, medium_dataset):
        query = self.queries(medium_dataset)[0]
        stats = AccessStats()
        assert tree.query(query, stats=stats, cutoff=-math.inf) == []
        assert stats.rtree_nodes == 1

    def test_nan_cutoff_is_refused(self, tree, medium_dataset):
        # ``score <= nan`` never holds: a NaN would silently empty the
        # answer instead of failing.
        query = self.queries(medium_dataset)[0]
        with pytest.raises(ValueError, match="NaN"):
            tree.query(query, cutoff=math.nan)


class TestAcrossStrategiesAgreement:
    def test_all_strategies_return_identical_scores(self):
        pois = random_pois(300, seed=13)
        queries = [
            KNNTAQuery((20.0, 80.0), TimeInterval(1, 6), k=10, alpha0=0.3),
            KNNTAQuery((90.0, 10.0), TimeInterval(0, 12), k=25, alpha0=0.7),
        ]
        trees = {
            s: build_tree(pois, s) for s in ("integral3d", "spatial", "aggregate")
        }
        for query in queries:
            per_strategy = {
                name: scores(knnta_search(tree, query))
                for name, tree in trees.items()
            }
            reference = per_strategy.pop("integral3d")
            for got in per_strategy.values():
                assert got == reference


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
            st.dictionaries(st.integers(0, 11), st.integers(1, 9), max_size=6),
        ),
        min_size=1,
        max_size=80,
    ),
    st.tuples(
        st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
    ),
    st.integers(1, 20),
    st.floats(0.05, 0.95),
    st.sampled_from(["integral3d", "spatial", "aggregate"]),
)
def test_property_bfs_equals_scan(pois, point, k, alpha0, strategy):
    tree = build_tree(
        [(i, x, y, h) for i, (x, y, h) in enumerate(pois)], strategy
    )
    query = KNNTAQuery(point, TimeInterval(0, 12), k=k, alpha0=alpha0)
    assert scores(knnta_search(tree, query)) == scores(sequential_scan(tree, query))
