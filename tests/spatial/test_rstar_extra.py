"""Additional R*-tree coverage: 3-D trees, access accounting, bulk edges."""

import random

import pytest

from repro.spatial.bulk import _balanced_group_sizes
from repro.spatial.geometry import Rect, point_distance
from repro.spatial.rstar import RStarTree
from repro.storage.stats import AccessStats


def random_points_3d(n, seed=0):
    rng = random.Random(seed)
    return [(rng.random(), rng.random(), rng.random()) for _ in range(n)]


class TestThreeDimensionalTree:
    def test_build_and_invariants(self):
        tree = RStarTree(dims=3, capacity=8)
        points = random_points_3d(300, seed=1)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        tree.check_invariants()
        assert tree.height >= 3

    def test_window_search_3d(self):
        tree = RStarTree(dims=3, capacity=8)
        points = random_points_3d(300, seed=2)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        window = Rect((0.2, 0.2, 0.2), (0.7, 0.6, 0.9))
        expected = {i for i, p in enumerate(points) if window.contains_point(p)}
        assert set(tree.search(window)) == expected

    def test_knn_3d_matches_brute_force(self):
        tree = RStarTree(dims=3, capacity=8)
        points = random_points_3d(250, seed=3)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        query = (0.4, 0.4, 0.4)
        got = [d for d, _ in tree.nearest(query, k=12)]
        brute = sorted(point_distance(p, query) for p in points)[:12]
        assert got == pytest.approx(brute)

    def test_delete_3d(self):
        tree = RStarTree(dims=3, capacity=8)
        points = random_points_3d(150, seed=4)
        for i, p in enumerate(points):
            tree.insert(Rect.from_point(p), i)
        for i in range(0, 150, 2):
            assert tree.delete(Rect.from_point(points[i]), i)
        tree.check_invariants()
        assert len(tree) == 75


class TestAccessAccounting:
    def test_window_search_counts_nodes(self):
        stats = AccessStats()
        tree = RStarTree(dims=2, capacity=8, stats=stats)
        rng = random.Random(5)
        for i in range(300):
            tree.insert(Rect.from_point((rng.random(), rng.random())), i)
        stats.reset()
        tree.search(Rect((0.0, 0.0), (0.05, 0.05)))
        small_window = stats.rtree_nodes
        stats.reset()
        tree.search(Rect((0.0, 0.0), (1.0, 1.0)))
        full_window = stats.rtree_nodes
        assert 0 < small_window < full_window == tree.node_count()


class TestBalancedGroupSizes:
    def test_single_group_when_it_fits(self):
        assert _balanced_group_sizes(7, capacity=10, min_fill=4, fill_ratio=0.9) == [7]

    def test_groups_within_bounds(self):
        sizes = _balanced_group_sizes(100, capacity=10, min_fill=4, fill_ratio=0.9)
        assert sum(sizes) == 100
        assert all(4 <= size <= 10 for size in sizes)

    def test_capacity_beats_extreme_min_fill(self):
        # min_fill == capacity with a non-multiple total: capacity wins.
        sizes = _balanced_group_sizes(95, capacity=10, min_fill=10, fill_ratio=1.0)
        assert sum(sizes) == 95
        assert all(size <= 10 for size in sizes)

    def test_balance(self):
        sizes = _balanced_group_sizes(103, capacity=20, min_fill=8, fill_ratio=0.8)
        assert max(sizes) - min(sizes) <= 1
