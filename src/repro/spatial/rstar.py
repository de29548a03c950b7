"""R*-tree grouping (Beckmann et al., SIGMOD 1990) and the R-tree nodes.

The TAR-tree (:mod:`repro.core.tar_tree`), the repository's one tree,
groups its entries with the pure algorithms here —
:func:`rstar_choose_subtree`, :func:`rstar_split_groups` and
:func:`reinsert_indices`, which operate on plain lists of
:class:`~repro.spatial.geometry.Rect` — in 2-D for its spatial strategy
and in 3-D for the integral-3D one, and builds on :class:`Entry` and
:class:`Node`.

The algorithms follow the original paper: choose-subtree minimises
overlap enlargement at the leaf level and area enlargement above it,
forced reinsertion removes the entries whose centers are farthest from
the node center, and splits pick the axis with the least margin sum and
the distribution with the least overlap.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Sequence

from repro.spatial.geometry import Rect

if TYPE_CHECKING:
    from repro.core.frames import NodeFrame


# ---------------------------------------------------------------------------
# Pure grouping algorithms (shared with the TAR-tree strategies)
# ---------------------------------------------------------------------------


def rstar_choose_subtree(
    rects: Sequence[Rect], new_rect: Rect, children_are_leaves: bool
) -> int:
    """Return the index of the child rectangle that should receive ``new_rect``.

    ``rects`` are the (grouping-space) rectangles of the candidate child
    entries.  When the children are leaf nodes the R*-tree minimises the
    *overlap enlargement* caused by the insertion; otherwise it minimises
    the *area enlargement*.  Ties fall back to area enlargement and then
    to area, as in the original paper.
    """
    if not rects:
        raise ValueError("cannot choose a subtree among zero children")
    if children_are_leaves:
        return _choose_least_overlap_enlargement(rects, new_rect)
    return _choose_least_area_enlargement(rects, new_rect)


def _choose_least_area_enlargement(rects: Sequence[Rect], new_rect: Rect) -> int:
    best_index = 0
    best_key: tuple[float, float] | None = None
    for i, rect in enumerate(rects):
        key = (rect.enlargement(new_rect), rect.area())
        if best_key is None or key < best_key:
            best_key = key
            best_index = i
    return best_index


_OVERLAP_CANDIDATES = 32


def _choose_least_overlap_enlargement(rects: Sequence[Rect], new_rect: Rect) -> int:
    # Overlap enlargement is O(n^2) in the fan-out.  Beckmann et al.'s
    # remedy for large nodes: rank entries by area enlargement and test
    # overlap only for the best 32 candidates.
    candidates: Sequence[int] = range(len(rects))
    if len(rects) > _OVERLAP_CANDIDATES:
        candidates = sorted(
            candidates, key=lambda i: rects[i].enlargement(new_rect)
        )[:_OVERLAP_CANDIDATES]
    best_index = 0
    best_key: tuple[float, float, float] | None = None
    for i in candidates:
        rect = rects[i]
        enlarged = rect.union(new_rect)
        overlap_before = 0.0
        overlap_after = 0.0
        for j, other in enumerate(rects):
            if j == i:
                continue
            overlap_before += rect.overlap_area(other)
            overlap_after += enlarged.overlap_area(other)
        key = (
            overlap_after - overlap_before,
            rect.enlargement(new_rect),
            rect.area(),
        )
        if best_key is None or key < best_key:
            best_key = key
            best_index = i
    return best_index


def rstar_split_groups(
    rects: Sequence[Rect], min_fill: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split overflowing rectangles into two groups, R*-tree style.

    Returns two tuples of indices into ``rects``.  The split axis is the
    one minimising the margin sum over all legal distributions; along that
    axis the chosen distribution minimises overlap, breaking ties on total
    area.  Each group receives at least ``min_fill`` entries.
    """
    total = len(rects)
    if total < 2:
        raise ValueError("cannot split fewer than two entries")
    if min_fill < 1 or 2 * min_fill > total:
        raise ValueError(
            "min_fill %d is invalid for %d entries" % (min_fill, total)
        )
    dims = rects[0].dims

    best_axis_order: tuple[list[int], list[int]] | None = None
    best_margin_sum: float | None = None
    for axis in range(dims):
        by_low = sorted(range(total), key=lambda i: (rects[i].lows[axis], rects[i].highs[axis]))
        by_high = sorted(range(total), key=lambda i: (rects[i].highs[axis], rects[i].lows[axis]))
        margin_sum = 0.0
        for order in (by_low, by_high):
            prefixes, suffixes = _running_unions(rects, order)
            for split_at in range(min_fill, total - min_fill + 1):
                margin_sum += prefixes[split_at - 1].margin() + suffixes[split_at].margin()
        if best_margin_sum is None or margin_sum < best_margin_sum:
            best_margin_sum = margin_sum
            best_axis_order = (by_low, by_high)
    if best_axis_order is None:
        raise AssertionError("no split axis for %d-dimensional entries" % dims)

    best_groups: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    best_key: tuple[float, float] | None = None
    for order in best_axis_order:
        prefixes, suffixes = _running_unions(rects, order)
        for split_at in range(min_fill, total - min_fill + 1):
            first = prefixes[split_at - 1]
            second = suffixes[split_at]
            key = (first.overlap_area(second), first.area() + second.area())
            if best_key is None or key < best_key:
                best_key = key
                best_groups = (tuple(order[:split_at]), tuple(order[split_at:]))
    if best_groups is None:
        raise AssertionError("no legal split distribution")
    return best_groups


def _running_unions(
    rects: Sequence[Rect], order: Sequence[int]
) -> tuple[list[Rect], list[Rect]]:
    """Prefix and suffix bounding rectangles along ``order``.

    ``prefixes[i]`` bounds ``order[:i+1]``; ``suffixes[i]`` bounds
    ``order[i:]``.  Makes every split distribution O(1) to evaluate.
    """
    prefixes: list[Rect] = []
    running: Rect | None = None
    for i in order:
        running = rects[i] if running is None else running.union(rects[i])
        prefixes.append(running)
    suffixes_reversed: list[Rect] = []
    running = None
    for position in range(len(order) - 1, -1, -1):
        rect = rects[order[position]]
        running = rect if running is None else running.union(rect)
        suffixes_reversed.append(running)
    suffixes_reversed.reverse()
    return prefixes, suffixes_reversed


def reinsert_indices(rects: Sequence[Rect], count: int) -> tuple[int, ...]:
    """Return the indices of the ``count`` entries to force-reinsert.

    Per the R*-tree, these are the entries whose centers are farthest from
    the center of the node's bounding rectangle, removed farthest-first.
    """
    if count <= 0:
        return ()
    node_center = Rect.union_all(rects).center
    order = sorted(
        range(len(rects)),
        key=lambda i: -_center_distance_sq(rects[i], node_center),
    )
    return tuple(order[:count])


def _center_distance_sq(rect: Rect, point: Sequence[float]) -> float:
    total = 0.0
    for lo, hi, value in zip(rect.lows, rect.highs, point):
        delta = (lo + hi) / 2.0 - value
        total += delta * delta
    return total


# ---------------------------------------------------------------------------
# Tree structure
# ---------------------------------------------------------------------------

_node_ids = itertools.count()


class Entry:
    """One slot of an R-tree node.

    Leaf entries carry a payload ``item``; internal entries carry a
    ``child`` node.  ``rect`` is the bounding rectangle in grouping space.
    ``mbr`` is the spatial MBR (``rect`` when not given) and ``tia`` the
    entry's temporal index; the TAR-tree sets both.
    """

    __slots__ = ("rect", "child", "item", "mbr", "tia")

    def __init__(
        self,
        rect: Rect,
        child: Node | None = None,
        item: Any = None,
        mbr: Rect | None = None,
        tia: Any = None,
    ) -> None:
        self.rect = rect
        self.child = child
        self.item = item
        self.mbr = rect if mbr is None else mbr
        self.tia = tia

    @property
    def is_leaf_entry(self) -> bool:
        return self.child is None

    def __repr__(self) -> str:
        kind = "item=%r" % (self.item,) if self.child is None else "child=node"
        return "Entry(%r, %s)" % (self.rect, kind)


class Node:
    """An R-tree node; ``level`` 0 marks a leaf.

    ``stamp`` is a mutation counter for layers that cache per-node
    derived state (the TAR-tree's packed frames,
    :mod:`repro.core.frames`): code under such a cache that changes the
    entry list or an entry's rect/MBR/TIA content — splits, forced
    reinsertions, digest propagation, repairs — must bump it so stale
    caches are detected.  ``frame`` holds that cached state, tagged with
    the stamp it was built under.
    """

    __slots__ = ("node_id", "level", "entries", "parent", "stamp", "frame")

    def __init__(self, level: int) -> None:
        self.node_id = next(_node_ids)
        self.level = level
        self.entries: list[Entry] = []
        self.parent: Node | None = None
        self.stamp = 0
        self.frame: NodeFrame | None = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def rect(self) -> Rect:
        """Bounding rectangle of all entries (grouping space)."""
        return Rect.union_all(entry.rect for entry in self.entries)

    def mbr(self) -> Rect:
        """Spatial bounding rectangle of all entries."""
        return Rect.union_all(entry.mbr for entry in self.entries)

    def entry_for_child(self, child: Node) -> Entry:
        """Return this node's entry pointing at ``child``."""
        for entry in self.entries:
            if entry.child is child:
                return entry
        raise LookupError("node %d has no entry for child %d" % (self.node_id, child.node_id))

    def __repr__(self) -> str:
        return "Node(id=%d, level=%d, entries=%d)" % (
            self.node_id,
            self.level,
            len(self.entries),
        )
