"""Minimum weight adjustment (Section 7.1), including Table 3."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import POI, TARTree, TimeInterval
from repro.core.mwa import (
    MWAResult,
    minimum_weight_adjustment,
    mwa_enumerating,
    mwa_from_pairs,
    mwa_pruning,
    weight_boundary,
)
from repro.core.query import KNNTAQuery
from repro.core.scan import full_ranking
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock

# Table 3: the six POIs of the MWA worked example (alpha0 = 0.5, k = 2).
TABLE_3 = {
    "p1": (0.25, 0.10),
    "p2": (0.10, 0.30),
    "p3": (0.20, 0.35),
    "p4": (0.35, 0.25),
    "p5": (0.025, 0.60),
    "p6": (0.60, 0.05),
}


class TestWeightBoundary:
    def test_paper_gamma_p1_p3(self):
        # "To let f'(p1) > f'(p3), we need alpha0' > 5/6."
        assert weight_boundary(TABLE_3["p1"], TABLE_3["p3"]) == pytest.approx(5 / 6)

    def test_paper_gamma_p1_p5(self):
        assert weight_boundary(TABLE_3["p1"], TABLE_3["p5"]) == pytest.approx(20 / 29)

    def test_paper_gamma_p1_p6(self):
        assert weight_boundary(TABLE_3["p1"], TABLE_3["p6"]) == pytest.approx(1 / 8)

    def test_paper_gamma_p2_p4(self):
        assert weight_boundary(TABLE_3["p2"], TABLE_3["p4"]) == pytest.approx(1 / 6)

    def test_paper_gamma_p2_p5(self):
        assert weight_boundary(TABLE_3["p2"], TABLE_3["p5"]) == pytest.approx(4 / 5)

    def test_paper_gamma_p2_p6(self):
        assert weight_boundary(TABLE_3["p2"], TABLE_3["p6"]) == pytest.approx(1 / 3)

    def test_dominance_gives_none(self):
        assert weight_boundary((0.1, 0.1), (0.2, 0.2)) is None
        assert weight_boundary((0.1, 0.2), (0.1, 0.3)) is None


class TestTable3MWA:
    def test_paper_result(self):
        # "The MWA of alpha0 is either alpha0' < 1/3 or alpha0' > 20/29."
        topk = [TABLE_3["p1"], TABLE_3["p2"]]
        lower = [TABLE_3[p] for p in ("p3", "p4", "p5", "p6")]
        result = mwa_from_pairs(topk, lower, alpha0=0.5)
        assert result.gamma_lower == pytest.approx(1 / 3)
        assert result.gamma_upper == pytest.approx(20 / 29)

    def test_minimum_adjustment_and_nearest(self):
        topk = [TABLE_3["p1"], TABLE_3["p2"]]
        lower = [TABLE_3[p] for p in ("p3", "p4", "p5", "p6")]
        result = mwa_from_pairs(topk, lower, alpha0=0.5)
        assert result.minimum_adjustment == pytest.approx(0.5 - 1 / 3)
        # The nearest boundary is the lower one, 1/3.
        assert result.alpha0 - result.minimum_adjustment == pytest.approx(1 / 3)

    def test_crossing_the_boundary_changes_exactly_one_poi(self):
        """Crossing Gamma_u swaps exactly one top-k POI (Section 7.1)."""

        def topk_at(alpha0, k=2):
            scored = sorted(
                TABLE_3, key=lambda p: alpha0 * TABLE_3[p][0] + (1 - alpha0) * TABLE_3[p][1]
            )
            return set(scored[:k])

        before = topk_at(0.5)
        after = topk_at(0.75)  # the paper changes alpha0 to 0.75
        assert before == {"p1", "p2"}
        assert after == {"p2", "p5"}
        assert len(before & after) == 1


class TestResultType:
    def test_immutable_result(self):
        result = MWAResult(0.5, None, None)
        assert result.minimum_adjustment is None

    def test_one_sided(self):
        result = MWAResult(0.5, 0.2, None)
        assert result.minimum_adjustment == pytest.approx(0.3)


def build_tree(n=200, seed=0, strategy="integral3d"):
    rng = random.Random(seed)
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        strategy=strategy,
        tia_backend="memory",
    )
    for i in range(n):
        history = {
            e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4
        }
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    return tree


def brute_force_mwa(tree, query):
    ranking = full_ranking(tree, query)
    topk = [r.score_pair for r in ranking[: query.k]]
    lower = [r.score_pair for r in ranking[query.k :]]
    return mwa_from_pairs(topk, lower, query.alpha0)


class TestOnTree:
    @pytest.mark.parametrize("alpha0", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_enumerating_matches_brute_force(self, alpha0):
        tree = build_tree(seed=1)
        query = KNNTAQuery((40.0, 40.0), TimeInterval(0, 12), k=8, alpha0=alpha0)
        expected = brute_force_mwa(tree, query)
        got = mwa_enumerating(tree, query)
        assert got.gamma_lower == pytest.approx(expected.gamma_lower)
        assert got.gamma_upper == pytest.approx(expected.gamma_upper)

    @pytest.mark.parametrize("alpha0", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_pruning_matches_brute_force(self, alpha0):
        tree = build_tree(seed=2)
        query = KNNTAQuery((70.0, 20.0), TimeInterval(0, 12), k=8, alpha0=alpha0)
        expected = brute_force_mwa(tree, query)
        got = mwa_pruning(tree, query)
        assert got.gamma_lower == pytest.approx(expected.gamma_lower)
        assert got.gamma_upper == pytest.approx(expected.gamma_upper)

    @pytest.mark.parametrize("k", [1, 5, 20, 50])
    def test_methods_agree_across_k(self, k):
        tree = build_tree(seed=3)
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 12), k=k, alpha0=0.3)
        a = mwa_enumerating(tree, query)
        b = mwa_pruning(tree, query)
        assert a.gamma_lower == pytest.approx(b.gamma_lower)
        assert a.gamma_upper == pytest.approx(b.gamma_upper)

    def test_pruning_accesses_fewer_nodes(self):
        tree = build_tree(n=400, seed=4)
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 12), k=30, alpha0=0.3)
        snap = tree.stats.snapshot()
        mwa_enumerating(tree, query)
        enumerating_nodes = tree.stats.diff(snap).rtree_nodes
        snap = tree.stats.snapshot()
        mwa_pruning(tree, query)
        pruning_nodes = tree.stats.diff(snap).rtree_nodes
        assert pruning_nodes < enumerating_nodes

    def test_dispatch(self):
        tree = build_tree(n=60, seed=5)
        query = KNNTAQuery((10.0, 10.0), TimeInterval(0, 12), k=5)
        a = minimum_weight_adjustment(tree, query, method="pruning")
        b = minimum_weight_adjustment(tree, query, method="enumerating")
        assert a.gamma_upper == pytest.approx(b.gamma_upper)
        with pytest.raises(ValueError):
            minimum_weight_adjustment(tree, query, method="magic")

    def test_adjusted_weight_actually_changes_topk(self):
        """Crossing the suggested boundary changes the top-k set."""
        tree = build_tree(seed=6)
        query = KNNTAQuery((30.0, 60.0), TimeInterval(0, 12), k=10, alpha0=0.5)
        result = mwa_pruning(tree, query)
        baseline = {r.poi_id for r in full_ranking(tree, query)[: query.k]}
        if result.gamma_upper is not None:
            shifted = query._replace(alpha0=min(0.999, result.gamma_upper + 1e-4))
            changed = {r.poi_id for r in full_ranking(tree, shifted)[: query.k]}
            assert changed != baseline
        if result.gamma_lower is not None:
            shifted = query._replace(alpha0=max(0.001, result.gamma_lower - 1e-4))
            changed = {r.poi_id for r in full_ranking(tree, shifted)[: query.k]}
            assert changed != baseline

    def test_weight_inside_the_bounds_preserves_topk(self):
        """Weights strictly between the bounds keep the result set."""
        tree = build_tree(seed=7)
        query = KNNTAQuery((80.0, 80.0), TimeInterval(0, 12), k=10, alpha0=0.4)
        result = mwa_pruning(tree, query)
        baseline = {r.poi_id for r in full_ranking(tree, query)[: query.k]}
        probes = []
        if result.gamma_lower is not None:
            probes.append(result.gamma_lower + 1e-4)
        if result.gamma_upper is not None:
            probes.append(result.gamma_upper - 1e-4)
        for alpha0 in probes:
            same = {
                r.poi_id
                for r in full_ranking(tree, query._replace(alpha0=alpha0))[: query.k]
            }
            assert same == baseline


class TestWeightAdjustmentSequence:
    """The multi-change extension mentioned at the end of Section 7.1."""

    def test_each_boundary_swaps_exactly_one_poi(self):
        from repro.core.mwa import weight_adjustment_sequence

        tree = build_tree(seed=21)
        query = KNNTAQuery((45.0, 55.0), TimeInterval(0, 12), k=10, alpha0=0.4)
        boundaries = weight_adjustment_sequence(tree, query, changes=3)
        assert len(boundaries) == 3
        assert boundaries == sorted(boundaries)
        # Each crossing changes the set by exactly one POI relative to
        # the set just before it (a POI may later re-enter, so changes
        # are not cumulative relative to the original weights).
        previous = {r.poi_id for r in full_ranking(tree, query)[: query.k]}
        for boundary in boundaries:
            shifted = query._replace(alpha0=min(0.999, boundary + 1e-6))
            current = {
                r.poi_id for r in full_ranking(tree, shifted)[: query.k]
            }
            assert len(previous - current) == 1
            assert len(current - previous) == 1
            previous = current

    def test_downward_direction(self):
        from repro.core.mwa import weight_adjustment_sequence

        tree = build_tree(seed=22)
        query = KNNTAQuery((10.0, 80.0), TimeInterval(0, 12), k=10, alpha0=0.6)
        boundaries = weight_adjustment_sequence(tree, query, changes=2, direction="down")
        assert boundaries == sorted(boundaries, reverse=True)
        assert all(b < 0.6 for b in boundaries)

    def test_first_boundary_matches_single_mwa(self):
        from repro.core.mwa import weight_adjustment_sequence

        tree = build_tree(seed=23)
        query = KNNTAQuery((70.0, 30.0), TimeInterval(0, 12), k=5, alpha0=0.3)
        boundaries = weight_adjustment_sequence(tree, query, changes=1)
        single = mwa_pruning(tree, query)
        assert boundaries[0] == pytest.approx(single.gamma_upper)

    def test_invalid_arguments(self):
        from repro.core.mwa import weight_adjustment_sequence

        tree = build_tree(n=30, seed=24)
        query = KNNTAQuery((1.0, 1.0), TimeInterval(0, 12), k=3)
        with pytest.raises(ValueError):
            weight_adjustment_sequence(tree, query, changes=0)
        with pytest.raises(ValueError):
            weight_adjustment_sequence(tree, query, changes=1, direction="sideways")

    def test_stops_when_immutable(self):
        from repro.core.mwa import weight_adjustment_sequence

        # Two POIs, k covering both: no adjustment can change the set.
        tree = TARTree(
            world=Rect((0.0, 0.0), (100.0, 100.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=12.0,
            tia_backend="memory",
        )
        tree.insert_poi(POI("a", 10, 10), {0: 5})
        tree.insert_poi(POI("b", 20, 20), {1: 3})
        query = KNNTAQuery((15.0, 15.0), TimeInterval(0, 12), k=2, alpha0=0.5)
        assert weight_adjustment_sequence(tree, query, changes=4) == []


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 100), st.integers(0, 100)
        ),
        min_size=4,
        max_size=30,
        unique=True,
    ),
    st.integers(1, 3),
)
def test_property_skyline_reduction_is_exact(points, k):
    """The pruning reduction (skylines only) never misses the extremum."""
    pairs = [(Fraction(x, 100), Fraction(y, 100)) for x, y in points]
    alpha0 = Fraction(1, 2)
    ranked = sorted(pairs, key=lambda s: alpha0 * s[0] + (1 - alpha0) * s[1])
    topk, lower = ranked[:k], ranked[k:]
    if not lower:
        return
    expected = mwa_from_pairs(topk, lower, 0.5)

    from repro.skyline.bnl import skyline_of_points

    reduced = mwa_from_pairs(
        skyline_of_points(topk, reverse=True),
        skyline_of_points(lower),
        0.5,
    )
    assert (expected.gamma_lower is None) == (reduced.gamma_lower is None)
    assert (expected.gamma_upper is None) == (reduced.gamma_upper is None)
    if expected.gamma_lower is not None:
        assert reduced.gamma_lower == pytest.approx(expected.gamma_lower)
    if expected.gamma_upper is not None:
        assert reduced.gamma_upper == pytest.approx(expected.gamma_upper)
