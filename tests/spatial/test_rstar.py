"""R*-tree grouping algorithms: choose-subtree, split and reinsertion."""

import random

import pytest

from repro.spatial.geometry import Rect
from repro.spatial.rstar import (
    reinsert_indices,
    rstar_choose_subtree,
    rstar_split_groups,
)


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
