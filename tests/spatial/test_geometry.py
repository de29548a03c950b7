"""Geometry primitives: rectangles, distances, unions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.geometry import Rect, point_distance


def rect_strategy(dims=2, low=-100.0, high=100.0):
    coord = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return st.lists(
        st.tuples(coord, coord).map(lambda pair: (min(pair), max(pair))),
        min_size=dims,
        max_size=dims,
    ).map(lambda sides: Rect([s[0] for s in sides], [s[1] for s in sides]))


def point_strategy(dims=2, low=-100.0, high=100.0):
    coord = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return st.tuples(*([coord] * dims))


class TestConstruction:
    def test_valid(self):
        rect = Rect((0, 1), (2, 3))
        assert rect.lows == (0.0, 1.0)
        assert rect.highs == (2.0, 3.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Rect((2, 0), (1, 1))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Rect((0, 0), (1, 1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Rect((), ())

    def test_from_point_is_degenerate(self):
        rect = Rect.from_point((3, 4))
        assert rect.area() == 0
        assert rect.contains_point((3, 4))


class TestMeasures:
    def test_area(self):
        assert Rect((0, 0), (2, 3)).area() == 6

    def test_area_3d(self):
        assert Rect((0, 0, 0), (2, 3, 4)).area() == 24

    def test_margin(self):
        assert Rect((0, 0), (2, 3)).margin() == 5

    def test_diagonal(self):
        assert Rect((0, 0), (3, 4)).diagonal() == 5

    def test_center(self):
        assert Rect((0, 0), (2, 4)).center == (1, 2)

    def test_extent(self):
        rect = Rect((1, 2), (4, 10))
        assert rect.extent(0) == 3
        assert rect.extent(1) == 8


class TestSetOperations:
    def test_union(self):
        union = Rect((0, 0), (1, 1)).union(Rect((2, -1), (3, 0.5)))
        assert union == Rect((0, -1), (3, 1))

    def test_union_all(self):
        rects = [Rect.from_point((i, -i)) for i in range(5)]
        assert Rect.union_all(rects) == Rect((0, -4), (4, 0))

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.union_all([])

    def test_enlargement(self):
        base = Rect((0, 0), (1, 1))
        assert base.enlargement(Rect((0, 0), (1, 2))) == pytest.approx(1.0)
        assert base.enlargement(Rect((0.2, 0.2), (0.8, 0.8))) == 0.0

    def test_intersects(self):
        a = Rect((0, 0), (2, 2))
        assert a.intersects(Rect((1, 1), (3, 3)))
        assert a.intersects(Rect((2, 2), (3, 3)))  # touching counts
        assert not a.intersects(Rect((3, 3), (4, 4)))

    def test_overlap_area(self):
        a = Rect((0, 0), (2, 2))
        assert a.overlap_area(Rect((1, 1), (3, 3))) == 1.0
        assert a.overlap_area(Rect((2, 2), (3, 3))) == 0.0
        assert a.overlap_area(Rect((5, 5), (6, 6))) == 0.0

    def test_contains(self):
        outer = Rect((0, 0), (4, 4))
        assert outer.contains_rect(Rect((1, 1), (2, 2)))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect((1, 1), (5, 2)))
        assert outer.contains_point((0, 4))
        assert not outer.contains_point((-0.1, 2))


class TestMinDist:
    def test_inside_is_zero(self):
        assert Rect((0, 0), (2, 2)).min_dist((1, 1)) == 0.0

    def test_axis_aligned(self):
        assert Rect((0, 0), (2, 2)).min_dist((5, 1)) == 3.0

    def test_corner(self):
        assert Rect((0, 0), (2, 2)).min_dist((5, 6)) == 5.0

    def test_point_distance(self):
        assert point_distance((0, 0), (3, 4)) == 5.0


@given(rect_strategy(), rect_strategy())
def test_property_union_contains_both(a, b):
    union = a.union(b)
    assert union.contains_rect(a)
    assert union.contains_rect(b)


@given(rect_strategy(), rect_strategy())
def test_property_overlap_symmetric(a, b):
    assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))


@given(rect_strategy(), point_strategy())
def test_property_min_dist_lower_bounds_center_distance(rect, point):
    center_dist = point_distance(rect.center, point)
    assert rect.min_dist(point) <= center_dist + 1e-9


@given(rect_strategy(), rect_strategy())
def test_property_enlargement_non_negative(a, b):
    assert a.enlargement(b) >= -1e-6


@given(rect_strategy(3), rect_strategy(3))
def test_property_3d_union_area_at_least_parts(a, b):
    union = a.union(b)
    assert union.area() >= max(a.area(), b.area()) - 1e-9
