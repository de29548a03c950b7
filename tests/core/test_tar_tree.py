"""TAR-tree structure, maintenance and invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AccessStats, KNNTAQuery, POI, TARTree, TimeInterval
from repro.core.query import Normalizer
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock


def make_tree(strategy="integral3d", capacity_node_size=1024, **kwargs):
    return TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=10.0,
        strategy=strategy,
        node_size=capacity_node_size,
        tia_backend="memory",
        **kwargs,
    )


def random_pois(n, seed=0, epochs=10, max_rate=5):
    rng = random.Random(seed)
    pois = []
    for i in range(n):
        history = {
            e: rng.randrange(0, max_rate)
            for e in range(epochs)
            if rng.random() < 0.5
        }
        history = {e: v for e, v in history.items() if v > 0}
        pois.append((POI(i, rng.random() * 100, rng.random() * 100), history))
    return pois


class TestBasicStructure:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.query(KNNTAQuery((1, 1), TimeInterval(0, 5), k=3)) == []

    def test_capacity_from_node_size_and_strategy_dims(self):
        assert make_tree("integral3d").capacity == 36
        assert make_tree("spatial").capacity == 50
        assert make_tree("aggregate").capacity == 50

    def test_single_insert(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 5, 5), {0: 3})
        assert len(tree) == 1
        assert "a" in tree
        assert tree.poi("a").point == (5.0, 5.0)
        assert tree.poi_tia("a").get(0) == 3
        tree.check_invariants()

    def test_duplicate_id_rejected(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 5, 5))
        with pytest.raises(ValueError):
            tree.insert_poi(POI("a", 6, 6))

    def test_out_of_world_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.insert_poi(POI("a", 500, 5))

    def test_non_2d_world_rejected(self):
        with pytest.raises(ValueError):
            TARTree(
                world=Rect((0, 0, 0), (1, 1, 1)),
                clock=EpochClock(0.0, 1.0),
                current_time=1.0,
            )

    @pytest.mark.parametrize("strategy", ["integral3d", "spatial", "aggregate"])
    def test_many_inserts_keep_invariants(self, strategy):
        # Scattered POIs, and POIs at one point: their spatial extents
        # coincide, so splits and choose-subtree tie on them.
        coincident = [(POI(i, 50.0, 50.0), {0: 1 + i % 3}) for i in range(300)]
        for pois in (random_pois(300, seed=1), coincident):
            tree = make_tree(strategy)
            for poi, history in pois:
                tree.insert_poi(poi, history)
                tree.check_invariants()
            assert len(tree) == 300
            assert tree.height >= 2
            for poi, _history in pois[::2]:
                assert tree.delete_poi(poi.poi_id)
                tree.check_invariants()
            assert sorted(tree.poi_ids()) == [poi.poi_id for poi, _ in pois[1::2]]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_tree("bogus")

    @pytest.mark.parametrize("backend", ["memory", "paged", "mvbt"])
    def test_every_tia_backend_supported(self, backend):
        from repro.core.knnta import knnta_search
        from repro.core.query import KNNTAQuery
        from repro.core.scan import sequential_scan

        tree = TARTree(
            world=Rect((0.0, 0.0), (100.0, 100.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=10.0,
            tia_backend=backend,
        )
        for poi, history in random_pois(120, seed=17):
            tree.insert_poi(poi, history)
        tree.check_invariants()
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 10), k=10)
        bfs = [round(r.score, 10) for r in knnta_search(tree, query)]
        scan = [round(r.score, 10) for r in sequential_scan(tree, query)]
        assert bfs == scan


class TestDeletion:
    @pytest.mark.parametrize("strategy", ["integral3d", "spatial", "aggregate"])
    def test_delete_half(self, strategy):
        tree = make_tree(strategy)
        pois = random_pois(200, seed=2)
        for poi, history in pois:
            tree.insert_poi(poi, history)
        for poi, _ in pois[::2]:
            assert tree.delete_poi(poi.poi_id)
        assert len(tree) == 100
        tree.check_invariants()

    def test_delete_missing(self):
        tree = make_tree()
        assert tree.delete_poi("ghost") is False

    def test_delete_all_then_reinsert(self):
        tree = make_tree()
        pois = random_pois(80, seed=3)
        for poi, history in pois:
            tree.insert_poi(poi, history)
        for poi, _ in pois:
            assert tree.delete_poi(poi.poi_id)
        assert len(tree) == 0
        tree.insert_poi(POI("fresh", 1, 1), {0: 1})
        tree.check_invariants()

    def test_delete_refreshes_global_maxima(self):
        tree = make_tree()
        tree.insert_poi(POI("big", 1, 1), {0: 100})
        tree.insert_poi(POI("small", 2, 2), {0: 3})
        assert tree.global_epoch_max() == {0: 100}
        tree.delete_poi("big")
        assert tree.global_epoch_max() == {0: 3}


class TestCheckinDigestion:
    def test_digest_updates_leaf_tia(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 5, 5))
        tree.digest_epoch(0, {"a": 4})
        tree.digest_epoch(0, {"a": 2})
        assert tree.poi_tia("a").get(0) == 6
        tree.check_invariants()

    def test_digest_updates_internal_maxima(self):
        tree = make_tree()
        for poi, _ in random_pois(150, seed=4):
            tree.insert_poi(poi)
        tree.digest_epoch(3, {i: i % 5 + 1 for i in range(150)})
        tree.check_invariants()
        assert tree.global_epoch_max()[3] == 5

    def test_digest_unknown_poi(self):
        tree = make_tree()
        with pytest.raises(KeyError):
            tree.digest_epoch(0, {"ghost": 1})

    def test_digest_ignores_non_positive(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 5, 5))
        tree.digest_epoch(0, {"a": 0})
        assert tree.poi_tia("a").get(0) == 0

    def test_digest_advances_current_time(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 5, 5))
        assert tree.current_time == 10.0
        tree.digest_epoch(20, {"a": 1})
        assert tree.current_time == 21.0

    def test_digestion_equivalent_to_build_time_history(self):
        """Inserting history up front vs digesting epoch by epoch."""
        pois = random_pois(120, seed=5)
        up_front = make_tree()
        for poi, history in pois:
            up_front.insert_poi(poi, history)
        incremental = make_tree()
        for poi, _ in pois:
            incremental.insert_poi(poi)
        for epoch in range(10):
            counts = {
                poi.poi_id: history[epoch]
                for poi, history in pois
                if epoch in history
            }
            incremental.digest_epoch(epoch, counts)
        incremental.check_invariants()
        interval = TimeInterval(0, 10)
        for poi, _ in pois:
            assert up_front.poi_tia(poi.poi_id).aggregate(
                up_front.clock, interval
            ) == incremental.poi_tia(poi.poi_id).aggregate(
                incremental.clock, interval
            )
        assert up_front.global_epoch_max() == incremental.global_epoch_max()


class TestNormalisation:
    def test_normalized_position(self):
        tree = make_tree()
        assert tree.normalized_position(POI("x", 50, 25)) == (0.5, 0.25)

    def test_aggregate_coordinate_extremes(self):
        tree = make_tree()
        tree.insert_poi(POI("hot", 1, 1), {e: 10 for e in range(10)})
        tree.insert_poi(POI("cold", 2, 2), {0: 1})
        assert tree.aggregate_coordinate("hot") == pytest.approx(0.0)
        assert tree.aggregate_coordinate("cold") == pytest.approx(1 - 0.1 / 10)

    def test_aggregate_coordinate_empty_tree_rate(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 1, 1))
        assert tree.aggregate_coordinate("a") == 1.0

    def test_max_aggregate_bound_vs_exact(self):
        tree = make_tree()
        for poi, history in random_pois(100, seed=6):
            tree.insert_poi(poi, history)
        interval = TimeInterval(0, 10)
        bound = tree.normalizer(interval).g_max
        exact = tree.normalizer(interval, exact=True).g_max
        assert bound >= exact > 0

    def test_normalizer_falls_back_to_one(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 1, 1))
        assert tree.normalizer(TimeInterval(0, 5)).g_max == 1.0


class TestRefresh:
    def test_refresh_preserves_content(self):
        tree = make_tree()
        pois = random_pois(150, seed=7)
        for poi, history in pois:
            tree.insert_poi(poi, history)
        before = {p.poi_id: dict(tree.poi_tia(p.poi_id).items()) for p, _ in pois}
        tree.refresh_aggregate_dimension()
        tree.check_invariants()
        assert len(tree) == 150
        for poi_id, history in before.items():
            assert dict(tree.poi_tia(poi_id).items()) == history

    def test_refresh_updates_stale_rate(self):
        tree = make_tree()
        tree.insert_poi(POI("a", 1, 1), {0: 1})
        # Digest a burst that makes 'a' much hotter than at placement.
        for epoch in range(1, 10):
            tree.digest_epoch(epoch, {"a": 50})
        tree.refresh_aggregate_dimension()
        assert tree.aggregate_coordinate("a") == pytest.approx(0.0)
        tree.check_invariants()


class TestQuerySurface:
    @pytest.fixture(scope="class")
    def tree(self):
        tree = make_tree(capacity_node_size=512)
        for poi, history in random_pois(300, seed=11):
            tree.insert_poi(poi, history)
        return tree

    @staticmethod
    def batch(same_interval, n=12, seed=12):
        rng = random.Random(seed)
        intervals = [TimeInterval(0, 10)] if same_interval else [
            TimeInterval(0, 10), TimeInterval(2, 6), TimeInterval(5, 9)
        ]
        return [
            KNNTAQuery(
                (rng.random() * 100, rng.random() * 100),
                intervals[i % len(intervals)],
                k=1 + i % 7,
                alpha0=rng.choice((0.1, 0.3, 0.7)),
            )
            for i in range(n)
        ]

    def test_query_records_into_the_given_stats_only(self, tree):
        query = self.batch(True, n=1)[0]
        before = tree.stats.snapshot()
        stats = AccessStats()
        answer = tree.query(query, stats=stats)
        assert tree.stats.snapshot() == before
        assert stats.rtree_nodes > 0
        assert answer == tree.query(query)
        assert tree.stats.diff(before).rtree_nodes == stats.rtree_nodes

    @pytest.mark.parametrize("same_interval", [True, False])
    def test_batch_is_each_rider_alone(self, tree, same_interval):
        queries = self.batch(same_interval)
        singles = []
        single_nodes = 0
        for query in queries:
            stats = AccessStats()
            singles.append(tree.query(query, stats=stats))
            single_nodes += stats.rtree_nodes
        stats = AccessStats()
        answers = tree.query_batch(queries, stats=stats)
        # ids, scores and tie order: the rows compare whole.
        assert answers == singles
        assert stats.rtree_nodes == single_nodes

    def test_batch_uses_the_given_normalizers(self, tree):
        queries = self.batch(False)
        pushed = {
            (q.interval, q.semantics): Normalizer(100.0, 50.0) for q in queries
        }
        answers = tree.query_batch(queries, normalizers=pushed)
        assert answers == [tree.query(q, Normalizer(100.0, 50.0)) for q in queries]

    def test_batch_cuts_each_rider_at_its_own_cutoff(self, tree):
        queries = self.batch(False)
        cutoffs = []
        for position, query in enumerate(queries):
            uncut = tree.query(query)
            # A row's exact score (kept), or no cut at all.
            cutoffs.append(uncut[len(uncut) // 2].score if position % 3 else math.inf)
        stats = AccessStats()
        answers = tree.query_batch(queries, stats=stats, cutoffs=cutoffs)
        single = AccessStats()
        assert answers == [
            tree.query(query, stats=single, cutoff=cutoff)
            for query, cutoff in zip(queries, cutoffs)
        ]
        assert stats.rtree_nodes == single.rtree_nodes
        with pytest.raises(ValueError, match="2 cutoffs for 12 queries"):
            tree.query_batch(queries, cutoffs=cutoffs[:2])


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
            st.dictionaries(st.integers(0, 9), st.integers(1, 9), max_size=5),
        ),
        min_size=1,
        max_size=100,
    ),
    st.sampled_from(["integral3d", "spatial", "aggregate"]),
)
def test_property_invariants_hold(pois, strategy):
    tree = make_tree(strategy)
    for i, (x, y, history) in enumerate(pois):
        tree.insert_poi(POI(i, x, y), history)
    tree.check_invariants()
    assert len(tree) == len(pois)
