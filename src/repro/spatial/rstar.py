"""A from-scratch R*-tree (Beckmann et al., SIGMOD 1990).

The module has two layers:

* Pure grouping algorithms — :func:`rstar_choose_subtree`,
  :func:`rstar_split_groups` and :func:`reinsert_indices` — that operate on
  plain lists of :class:`~repro.spatial.geometry.Rect`.  The TAR-tree
  (:mod:`repro.core.tar_tree`) reuses these for its spatial and integral-3D
  entry grouping strategies, so they are kept free of tree plumbing.
* :class:`RStarTree`, a complete standalone in-memory R*-tree with insert,
  delete, window search and best-first k-nearest-neighbour search.

The implementation follows the original paper: choose-subtree minimises
overlap enlargement at the leaf level and area enlargement above it,
overflow triggers one forced reinsertion per level per insertion (the 30%
of entries whose centers are farthest from the node center), and splits
pick the axis with the least margin sum and the distribution with the
least overlap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import TYPE_CHECKING, Any, Iterator, Sequence, cast

from repro.spatial.geometry import Rect

if TYPE_CHECKING:
    from repro.core.frames import NodeFrame
    from repro.storage.stats import AccessStats

DEFAULT_REINSERT_RATIO = 0.3
DEFAULT_MIN_FILL_RATIO = 0.4


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
    The optional ``mbr`` and ``tia`` slots are used by the TAR-tree layer
    (spatial MBR when grouping space is 3-D, and the entry's temporal
    index); they stay ``None`` for plain spatial trees, where ``mbr`` is
    the same object as ``rect``.
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
    the stamp it was built under.  The plain R*-tree carries but never
    reads either.
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


class RStarTree:
    """A standalone in-memory R*-tree over ``dims``-dimensional rectangles.

    Parameters
    ----------
    dims:
        Dimensionality of indexed rectangles.
    capacity:
        Maximum entries per node (derive from a node size in bytes with
        :func:`repro.storage.pager.node_capacity`).
    min_fill_ratio:
        Minimum node fill as a fraction of ``capacity`` (R*-tree uses 0.4).
    reinsert_ratio:
        Fraction of entries removed on forced reinsertion (R*-tree uses 0.3).
    stats:
        Optional :class:`repro.storage.stats.AccessStats`; search and kNN
        record node accesses into it.
    """

    def __init__(
        self,
        dims: int = 2,
        capacity: int = 50,
        min_fill_ratio: float = DEFAULT_MIN_FILL_RATIO,
        reinsert_ratio: float = DEFAULT_REINSERT_RATIO,
        stats: AccessStats | None = None,
    ) -> None:
        if capacity < 4:
            raise ValueError("capacity must be >= 4, got %d" % capacity)
        self.dims = dims
        self.capacity = capacity
        self.min_fill = max(1, int(math.ceil(capacity * min_fill_ratio)))
        self.reinsert_count = max(1, int(capacity * reinsert_ratio))
        self.stats = stats
        self.root = Node(level=0)
        self._size = 0

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        return self.root.level + 1

    def node_count(self) -> int:
        """Total number of nodes (walks the tree)."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(cast(Node, entry.child) for entry in node.entries)
        return count

    def bounds(self) -> Rect | None:
        """Bounding rectangle of the whole tree, or ``None`` when empty."""
        if not self.root.entries:
            return None
        return self.root.rect()

    # -- insertion ----------------------------------------------------------

    def insert(self, rect: Rect, item: Any) -> None:
        """Insert ``item`` with bounding rectangle ``rect``."""
        if rect.dims != self.dims:
            raise ValueError(
                "rect has %d dims but tree indexes %d" % (rect.dims, self.dims)
            )
        self._insert_entry(Entry(rect, item=item), level=0, split_allowed_levels=set())
        self._size += 1

    def _insert_entry(
        self, entry: Entry, level: int, split_allowed_levels: set[int]
    ) -> None:
        """Insert ``entry`` at ``level``; handles overflow recursively.

        ``split_allowed_levels`` tracks the levels where forced
        reinsertion already happened during this top-level insertion, so
        each level reinserts at most once (the R*-tree rule).
        """
        node = self._choose_node(entry.rect, level)
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
        self._adjust_path(node)
        if len(node.entries) > self.capacity:
            self._overflow(node, split_allowed_levels)

    def _choose_node(self, rect: Rect, level: int) -> Node:
        node = self.root
        while node.level > level:
            rects = [entry.rect for entry in node.entries]
            index = rstar_choose_subtree(
                rects, rect, children_are_leaves=(node.level == level + 1)
            )
            node = cast(Node, node.entries[index].child)
        return node

    def _adjust_path(self, node: Node) -> None:
        """Refresh bounding rectangles from ``node`` up to the root."""
        while node.parent is not None:
            parent = node.parent
            entry = parent.entry_for_child(node)
            entry.rect = node.rect()
            node = parent

    def _overflow(self, node: Node, split_allowed_levels: set[int]) -> None:
        if node is not self.root and node.level not in split_allowed_levels:
            split_allowed_levels.add(node.level)
            self._force_reinsert(node, split_allowed_levels)
        else:
            self._split(node, split_allowed_levels)

    def _force_reinsert(self, node: Node, split_allowed_levels: set[int]) -> None:
        rects = [entry.rect for entry in node.entries]
        victims = set(reinsert_indices(rects, self.reinsert_count))
        removed = [node.entries[i] for i in victims]
        node.entries = [e for i, e in enumerate(node.entries) if i not in victims]
        self._adjust_path(node)
        for entry in removed:
            self._insert_entry(entry, node.level, split_allowed_levels)

    def _split(self, node: Node, split_allowed_levels: set[int]) -> None:
        rects = [entry.rect for entry in node.entries]
        group_a, group_b = rstar_split_groups(rects, self.min_fill)
        entries = node.entries
        sibling = Node(level=node.level)
        node.entries = [entries[i] for i in group_a]
        sibling.entries = [entries[i] for i in group_b]
        for entry in sibling.entries:
            if entry.child is not None:
                entry.child.parent = sibling

        if node is self.root:
            new_root = Node(level=node.level + 1)
            new_root.entries.append(Entry(node.rect(), child=node))
            new_root.entries.append(Entry(sibling.rect(), child=sibling))
            node.parent = new_root
            sibling.parent = new_root
            self.root = new_root
            return

        parent = cast(Node, node.parent)
        parent.entry_for_child(node).rect = node.rect()
        sibling_entry = Entry(sibling.rect(), child=sibling)
        parent.entries.append(sibling_entry)
        sibling.parent = parent
        self._adjust_path(parent)
        if len(parent.entries) > self.capacity:
            self._overflow(parent, split_allowed_levels)

    # -- deletion -----------------------------------------------------------

    def delete(self, rect: Rect, item: Any) -> bool:
        """Remove the entry with exactly ``rect`` and ``item``.

        Returns ``True`` when an entry was removed.  Underflowing nodes are
        dissolved and their entries reinserted (the classic condense-tree
        step).
        """
        found = self._find_leaf(self.root, rect, item)
        if found is None:
            return False
        leaf, index = found
        del leaf.entries[index]
        self._condense(leaf)
        self._size -= 1
        if not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = cast(Node, self.root.entries[0].child)
            self.root.parent = None
        return True

    def _find_leaf(
        self, node: Node, rect: Rect, item: Any
    ) -> tuple[Node, int] | None:
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.item == item and entry.rect == rect:
                    return node, i
            return None
        for entry in node.entries:
            if entry.rect.contains_rect(rect) or entry.rect.intersects(rect):
                found = self._find_leaf(cast(Node, entry.child), rect, item)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        orphans: list[tuple[int, list[Entry]]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_fill:
                parent.entries.remove(parent.entry_for_child(node))
                orphans.append((node.level, list(node.entries)))
            else:
                parent.entry_for_child(node).rect = node.rect()
            node = parent
        for level, entries in orphans:
            for entry in entries:
                self._insert_entry(entry, level, split_allowed_levels=set())

    # -- queries ------------------------------------------------------------

    def _record_access(self, node: Node) -> None:
        if self.stats is not None:
            self.stats.record_node(node.is_leaf)

    def search(self, rect: Rect) -> list[Any]:
        """Return the items whose rectangles intersect ``rect``."""
        results: list[Any] = []
        if not self.root.entries:
            return results
        stack = [self.root]
        while stack:
            node = stack.pop()
            self._record_access(node)
            for entry in node.entries:
                if entry.rect.intersects(rect):
                    if node.is_leaf:
                        results.append(entry.item)
                    else:
                        stack.append(cast(Node, entry.child))
        return results

    def nearest(self, point: Sequence[float], k: int = 1) -> list[tuple[float, Any]]:
        """Return the ``k`` items nearest to ``point`` (best-first search).

        Results are ``(distance, item)`` pairs in non-decreasing distance
        order, computed with the MINDIST lower bound of Hjaltason & Samet.
        """
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        results: list[tuple[float, Any]] = []
        if not self.root.entries:
            return results
        counter = itertools.count()
        heap: list[tuple[float, int, Entry]] = []
        self._record_access(self.root)
        for entry in self.root.entries:
            heapq.heappush(
                heap, (entry.rect.min_dist(point), next(counter), entry)
            )
        while heap and len(results) < k:
            distance, _, entry = heapq.heappop(heap)
            if entry.is_leaf_entry:
                results.append((distance, entry.item))
                continue
            child = cast(Node, entry.child)
            self._record_access(child)
            for child_entry in child.entries:
                heapq.heappush(
                    heap,
                    (child_entry.rect.min_dist(point), next(counter), child_entry),
                )
        return results

    def items(self) -> Iterator[tuple[Rect, Any]]:
        """Yield every ``(rect, item)`` pair in the tree."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if node.is_leaf:
                    yield entry.rect, entry.item
                else:
                    stack.append(cast(Node, entry.child))

    # -- validation ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` when a structural invariant is violated.

        Checks: parent pointers; bounding rectangles exactly cover child
        entries; node fill bounds (root excepted); uniform leaf depth; and
        that the recorded size matches the number of leaf entries.  The
        checks are explicit ``raise`` statements, not ``assert``, so they
        hold under ``python -O`` too.
        """
        leaf_levels: set[int] = set()
        count = 0
        stack: list[tuple[Node, Node | None]] = [(self.root, None)]
        while stack:
            node, parent = stack.pop()
            if node.parent is not parent:
                raise AssertionError(
                    "broken parent pointer at node %d" % node.node_id
                )
            if node is not self.root and len(node.entries) < self.min_fill:
                raise AssertionError(
                    "node %d underfull: %d < %d"
                    % (node.node_id, len(node.entries), self.min_fill)
                )
            if len(node.entries) > self.capacity:
                raise AssertionError(
                    "node %d overfull: %d > %d"
                    % (node.node_id, len(node.entries), self.capacity)
                )
            if node.is_leaf:
                leaf_levels.add(node.level)
                count += len(node.entries)
            else:
                for entry in node.entries:
                    if entry.child is None:
                        raise AssertionError("internal entry without child")
                    if entry.child.level != node.level - 1:
                        raise AssertionError(
                            "level mismatch at node %d" % node.node_id
                        )
                    if entry.rect != entry.child.rect():
                        raise AssertionError(
                            "stale bounding rect at node %d" % node.node_id
                        )
                    stack.append((entry.child, node))
        if self._size and leaf_levels != {0}:
            raise AssertionError("leaves at mixed levels: %r" % leaf_levels)
        if count != self._size:
            raise AssertionError(
                "size mismatch: %d != %d" % (count, self._size)
            )
