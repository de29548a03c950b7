"""R*-tree: grouping algorithms and the full standalone tree."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Rect, point_distance
from repro.spatial.rstar import (
    RStarTree,
    reinsert_indices,
    rstar_choose_subtree,
    rstar_split_groups,
)
from repro.storage.stats import AccessStats


def random_points(n, seed=0, extent=100.0):
    rng = random.Random(seed)
    return [(rng.random() * extent, rng.random() * extent) for _ in range(n)]


class TestChooseSubtree:
    def test_prefers_containing_rect(self):
        rects = [Rect((0, 0), (10, 10)), Rect((20, 20), (30, 30))]
        new = Rect((2, 2), (3, 3))
        assert rstar_choose_subtree(rects, new, children_are_leaves=False) == 0
        assert rstar_choose_subtree(rects, new, children_are_leaves=True) == 0

    def test_minimises_area_enlargement(self):
        rects = [Rect((0, 0), (10, 10)), Rect((10, 0), (12, 2))]
        new = Rect((11, 3), (11.5, 3.5))
        assert rstar_choose_subtree(rects, new, children_are_leaves=False) == 1

    def test_leaf_level_minimises_overlap_enlargement(self):
        # Putting the point into the big rect would newly overlap the
        # small one; the small rect can absorb it overlap-free.
        rects = [Rect((0, 0), (10, 10)), Rect((10.5, 4), (12, 6))]
        new = Rect.from_point((10.4, 5))
        assert rstar_choose_subtree(rects, new, children_are_leaves=True) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rstar_choose_subtree([], Rect((0, 0), (1, 1)), False)


class TestSplit:
    def test_splits_two_clusters_cleanly(self):
        cluster_a = [Rect.from_point((i * 0.1, (i % 3) * 0.2)) for i in range(5)]
        cluster_b = [
            Rect.from_point((100 + i * 0.1, (i % 3) * 0.2)) for i in range(5)
        ]
        group_1, group_2 = rstar_split_groups(cluster_a + cluster_b, min_fill=4)
        groups = {frozenset(group_1), frozenset(group_2)}
        assert groups == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_min_fill_respected(self):
        rects = [Rect.from_point((i, i)) for i in range(10)]
        group_1, group_2 = rstar_split_groups(rects, min_fill=4)
        assert len(group_1) >= 4 and len(group_2) >= 4
        assert sorted(group_1 + group_2) == list(range(10))

    def test_invalid_min_fill(self):
        rects = [Rect.from_point((i, i)) for i in range(4)]
        with pytest.raises(ValueError):
            rstar_split_groups(rects, min_fill=3)

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            rstar_split_groups([Rect((0, 0), (1, 1))], min_fill=1)

    def test_3d_split_partitions_everything(self):
        rng = random.Random(5)
        rects = [
            Rect.from_point((rng.random(), rng.random(), rng.random()))
            for _ in range(20)
        ]
        group_1, group_2 = rstar_split_groups(rects, min_fill=8)
        assert sorted(group_1 + group_2) == list(range(20))


class TestReinsert:
    def test_picks_farthest_from_center(self):
        # Five points near the cluster center plus one remote outlier: the
        # outlier's center distance dominates, so it is reinserted first.
        # No single cluster point sits at the union's low corner (5, 5),
        # so the outlier is strictly farthest from the node center.
        rects = [
            Rect.from_point(p)
            for p in [(5, 9), (9, 5), (7, 7), (8, 6), (6, 8)]
        ] + [Rect.from_point((100, 100))]
        victims = reinsert_indices(rects, 1)
        assert victims == (5,)

    def test_zero_count(self):
        assert reinsert_indices([Rect((0, 0), (1, 1))], 0) == ()

    def test_count_respected(self):
        rects = [Rect.from_point((i, 0)) for i in range(10)]
        assert len(reinsert_indices(rects, 3)) == 3


class TestRStarTree:
    def test_empty_tree(self):
        tree = RStarTree(dims=2, capacity=8)
        assert len(tree) == 0
        assert tree.bounds() is None
        assert tree.search(Rect((0, 0), (1, 1))) == []
        assert tree.nearest((0, 0), k=3) == []

    def test_insert_and_len(self):
        tree = RStarTree(dims=2, capacity=8)
        for i, p in enumerate(random_points(100, seed=1)):
            tree.insert(Rect.from_point(p), i)
        assert len(tree) == 100
        tree.check_invariants()

    def test_capacity_too_small_rejected(self):
        with pytest.raises(ValueError):
            RStarTree(dims=2, capacity=3)

    def test_dims_mismatch_rejected(self):
        tree = RStarTree(dims=2, capacity=8)
        with pytest.raises(ValueError):
            tree.insert(Rect((0, 0, 0), (1, 1, 1)), "x")

    def test_window_search_exact(self):
        points = random_points(300, seed=2)
        tree = RStarTree(dims=2, capacity=16)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        window = Rect((20, 20), (60, 70))
        expected = {i for i, p in enumerate(points) if window.contains_point(p)}
        assert set(tree.search(window)) == expected

    def test_knn_matches_brute_force(self):
        points = random_points(500, seed=3)
        tree = RStarTree(dims=2, capacity=12)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        query = (33.0, 44.0)
        got = tree.nearest(query, k=10)
        brute = sorted(point_distance(p, query) for p in points)[:10]
        assert [d for d, _ in got] == pytest.approx(brute)

    def test_knn_distances_non_decreasing(self):
        points = random_points(200, seed=4)
        tree = RStarTree(dims=2, capacity=8)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        distances = [d for d, _ in tree.nearest((50, 50), k=50)]
        assert distances == sorted(distances)

    def test_knn_k_larger_than_size(self):
        tree = RStarTree(dims=2, capacity=8)
        for i, p in enumerate(random_points(5, seed=5)):
            tree.insert(Rect.from_point(p), i)
        assert len(tree.nearest((0, 0), k=50)) == 5

    def test_knn_invalid_k(self):
        tree = RStarTree(dims=2, capacity=8)
        with pytest.raises(ValueError):
            tree.nearest((0, 0), k=0)

    def test_delete_removes_item(self):
        points = random_points(120, seed=6)
        tree = RStarTree(dims=2, capacity=8)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        for i in range(0, 120, 2):
            assert tree.delete(Rect.from_point(points[i]), i)
        assert len(tree) == 60
        tree.check_invariants()
        remaining = {item for _, item in tree.items()}
        assert remaining == set(range(1, 120, 2))

    def test_delete_missing_returns_false(self):
        tree = RStarTree(dims=2, capacity=8)
        tree.insert(Rect.from_point((1, 1)), "a")
        assert not tree.delete(Rect.from_point((2, 2)), "a")
        assert not tree.delete(Rect.from_point((1, 1)), "b")

    def test_delete_to_empty_and_reuse(self):
        tree = RStarTree(dims=2, capacity=8)
        points = random_points(50, seed=7)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        for i, p in enumerate(points):
            assert tree.delete(Rect.from_point(p), i)
        assert len(tree) == 0
        tree.insert(Rect.from_point((1, 2)), "again")
        assert len(tree) == 1
        tree.check_invariants()

    def test_node_access_counting(self):
        stats = AccessStats()
        tree = RStarTree(dims=2, capacity=8, stats=stats)
        for i, p in enumerate(random_points(200, seed=8)):
            tree.insert(Rect.from_point(p), i)
        stats.reset()
        tree.nearest((50, 50), k=1)
        assert stats.rtree_nodes >= tree.height
        assert stats.rtree_nodes < tree.node_count()

    def test_rectangles_with_extent(self):
        tree = RStarTree(dims=2, capacity=8)
        rng = random.Random(9)
        rects = []
        for i in range(150):
            x, y = rng.random() * 100, rng.random() * 100
            rect = Rect((x, y), (x + rng.random() * 5, y + rng.random() * 5))
            rects.append(rect)
            tree.insert(rect, i)
        tree.check_invariants()
        window = Rect((10, 10), (40, 40))
        expected = {i for i, r in enumerate(rects) if r.intersects(window)}
        assert set(tree.search(window)) == expected

    def test_duplicate_points_supported(self):
        tree = RStarTree(dims=2, capacity=8)
        for i in range(40):
            tree.insert(Rect.from_point((1.0, 1.0)), i)
        assert len(tree) == 40
        tree.check_invariants()
        assert set(tree.search(Rect((1, 1), (1, 1)))) == set(range(40))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_property_invariants_after_inserts(points):
    tree = RStarTree(dims=2, capacity=6)
    for i, p in enumerate(points):
        tree.insert(Rect.from_point(p), i)
    tree.check_invariants()
    assert len(tree) == len(points)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
        ),
        min_size=2,
        max_size=80,
    ),
    st.randoms(use_true_random=False),
)
def test_property_invariants_after_mixed_deletes(points, rnd):
    tree = RStarTree(dims=2, capacity=6)
    for i, p in enumerate(points):
        tree.insert(Rect.from_point(p), i)
    order = list(range(len(points)))
    rnd.shuffle(order)
    for i in order[: len(order) // 2]:
        assert tree.delete(Rect.from_point(points[i]), i)
    tree.check_invariants()
    assert len(tree) == len(points) - len(order) // 2


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 10, allow_nan=False),
            st.floats(0, 10, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    ),
    st.tuples(st.floats(0, 10, allow_nan=False), st.floats(0, 10, allow_nan=False)),
    st.integers(1, 10),
)
def test_property_knn_matches_brute_force(points, query, k):
    tree = RStarTree(dims=2, capacity=5)
    for i, p in enumerate(points):
        tree.insert(Rect.from_point(p), i)
    got = [d for d, _ in tree.nearest(query, k=k)]
    brute = sorted(point_distance(p, query) for p in points)[:k]
    assert got == pytest.approx(brute)
