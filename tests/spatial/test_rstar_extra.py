"""STR bulk loading's node sizes: every group within the fill bounds."""

from repro.spatial.bulk import _balanced_group_sizes


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
