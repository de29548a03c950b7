"""Geometry primitives: points and axis-aligned rectangles of any dimension.

Points are plain tuples of floats.  :class:`Rect` is the minimum bounding
rectangle (MBR) used throughout the R-tree layer; it deliberately stays a
small, allocation-light value object because R*-tree maintenance creates
and compares millions of them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A point: one float per dimension.
Point = tuple[float, ...]


class Rect:
    """An axis-aligned rectangle (hyper-rectangle for ``dims > 2``).

    ``lows`` and ``highs`` are tuples of per-dimension bounds with
    ``lows[i] <= highs[i]``.  Rectangles are immutable; all combining
    operations return new instances.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Iterable[float], highs: Iterable[float]) -> None:
        lows = tuple(float(v) for v in lows)
        highs = tuple(float(v) for v in highs)
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have equal length")
        if not lows:
            raise ValueError("rectangle needs at least one dimension")
        for lo, hi in zip(lows, highs):
            # NaN fails every comparison, so test validity positively —
            # otherwise NaN bounds would slip through and silently break
            # every downstream invariant.
            if not lo <= hi:
                raise ValueError("invalid bounds: low %r > high %r" % (lo, hi))
        self.lows: Point = lows
        self.highs: Point = highs

    @classmethod
    def from_point(cls, point: Iterable[float]) -> Rect:
        """Return the degenerate rectangle covering a single point."""
        point = tuple(point)
        return cls(point, point)

    @classmethod
    def union_all(cls, rects: Iterable[Rect]) -> Rect:
        """Return the minimum bounding rectangle of an iterable of rects."""
        rects = iter(rects)
        try:
            first = next(rects)
        except StopIteration:
            raise ValueError("union_all needs at least one rectangle") from None
        lows = list(first.lows)
        highs = list(first.highs)
        for rect in rects:
            for i, (lo, hi) in enumerate(zip(rect.lows, rect.highs)):
                if lo < lows[i]:
                    lows[i] = lo
                if hi > highs[i]:
                    highs[i] = hi
        return cls(lows, highs)

    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self.lows)

    @property
    def center(self) -> Point:
        """Center point as a tuple."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lows, self.highs))

    def extent(self, dim: int) -> float:
        """Side length along dimension ``dim``."""
        return self.highs[dim] - self.lows[dim]

    def area(self) -> float:
        """Product of side lengths (volume for ``dims > 2``)."""
        result = 1.0
        for lo, hi in zip(self.lows, self.highs):
            result *= hi - lo
        return result

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree's 'margin' objective)."""
        return sum(hi - lo for lo, hi in zip(self.lows, self.highs))

    def union(self, other: Rect) -> Rect:
        """Minimum bounding rectangle of ``self`` and ``other``."""
        lows = tuple(
            lo if lo < olo else olo for lo, olo in zip(self.lows, other.lows)
        )
        highs = tuple(
            hi if hi > ohi else ohi for hi, ohi in zip(self.highs, other.highs)
        )
        return Rect(lows, highs)

    def enlargement(self, other: Rect) -> float:
        """Area increase needed for ``self`` to also cover ``other``."""
        enlarged = 1.0
        original = 1.0
        for lo, hi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs):
            enlarged *= (hi if hi > ohi else ohi) - (lo if lo < olo else olo)
            original *= hi - lo
        return enlarged - original

    def intersects(self, other: Rect) -> bool:
        """True when the rectangles share at least a boundary point."""
        for lo, hi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs):
            if lo > ohi or olo > hi:
                return False
        return True

    def overlap_area(self, other: Rect) -> float:
        """Area of the intersection (0 when disjoint)."""
        result = 1.0
        for lo, hi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs):
            side = (hi if hi < ohi else ohi) - (lo if lo > olo else olo)
            if side <= 0.0:
                return 0.0
            result *= side
        return result

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside or on the boundary."""
        for lo, hi, value in zip(self.lows, self.highs, point):
            if value < lo or value > hi:
                return False
        return True

    def contains_rect(self, other: Rect) -> bool:
        """True when ``other`` lies entirely inside ``self``."""
        for lo, hi, olo, ohi in zip(self.lows, self.highs, other.lows, other.highs):
            if olo < lo or ohi > hi:
                return False
        return True

    def min_dist(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the nearest point of the rect.

        This is the classic MINDIST lower bound used by best-first search
        (Hjaltason & Samet).  Returns 0 when the point is inside.
        """
        total = 0.0
        for lo, hi, value in zip(self.lows, self.highs, point):
            if value < lo:
                delta = lo - value
            elif value > hi:
                delta = value - hi
            else:
                continue
            total += delta * delta
        return math.sqrt(total)

    def diagonal(self) -> float:
        """Length of the main diagonal (max pairwise distance inside)."""
        total = 0.0
        for lo, hi in zip(self.lows, self.highs):
            side = hi - lo
            total += side * side
        return math.sqrt(total)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rect)
            and self.lows == other.lows
            and self.highs == other.highs
        )

    def __hash__(self) -> int:
        return hash((self.lows, self.highs))

    def __repr__(self) -> str:
        return "Rect(%r, %r)" % (self.lows, self.highs)


def point_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points given as tuples."""
    total = 0.0
    for av, bv in zip(a, b):
        delta = av - bv
        total += delta * delta
    return math.sqrt(total)
