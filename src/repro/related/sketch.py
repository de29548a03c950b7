"""The sketch index: distinct counting over regions and time (Section 2).

Tao et al. ("Spatio-temporal aggregation using sketches", the paper's
reference [24]) address the aRB-tree's *distinct counting problem* — an
object remaining in a query region across several timestamps is counted
once per timestamp — by replacing the per-entry historical counts with
Flajolet–Martin (FM) sketches of the distinct object identifiers.
Sketches are unionable, so a region/time query merges the covered
sketches and estimates the number of *distinct* visitors.

The kNNTA paper dismisses this structure for its own problem for the
same reasons as the aRB-tree (aggregate values rather than ranked POIs,
equi-length epochs); implementing it makes the related-work landscape
complete and gives the library a genuine distinct-count index.

Two pieces:

* :class:`FMSketch` — the classic probabilistic distinct counter:
  ``m`` bitmaps, each recording the position of the lowest set bit of a
  hash; the estimate is ``(2 ** mean(R)) / phi`` with Flajolet &
  Martin's correction factor ``phi ~ 0.77351``.
* :class:`SketchIndex` — an STR-packed R-tree whose entries carry, per
  epoch, the FM sketch of the distinct visitor ids in their subtree.
  ``distinct_count(rect, interval)`` merges sketches exactly like the
  aRB-tree sums counts: fully covered entries contribute without
  descent.
"""

import hashlib

from repro.spatial.bulk import str_partition
from repro.spatial.geometry import Rect
from repro.spatial.rstar import Entry, Node
from repro.storage.pager import node_capacity
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import IntervalSemantics

_PHI = 0.77351
"""Flajolet–Martin bias correction constant."""


class FMSketch:
    """A Flajolet–Martin distinct-count sketch.

    Parameters
    ----------
    num_bitmaps:
        Number of independent bitmaps (averaging over them trades space
        for accuracy; the standard error is about ``0.78 / sqrt(m)``).
    bits:
        Bitmap width; 32 bits count up to billions of distinct items.
    """

    __slots__ = ("num_bitmaps", "bits", "_bitmaps")

    def __init__(self, num_bitmaps=32, bits=32):
        if num_bitmaps < 1:
            raise ValueError("need at least one bitmap")
        self.num_bitmaps = num_bitmaps
        self.bits = bits
        self._bitmaps = [0] * num_bitmaps

    def _hash(self, item, bitmap_index):
        digest = hashlib.blake2b(
            repr(item).encode(), digest_size=8, salt=bitmap_index.to_bytes(4, "little")
        ).digest()
        return int.from_bytes(digest, "little")

    @staticmethod
    def _rho(value, bits):
        """Position of the lowest set bit (0-based), capped at ``bits-1``."""
        if value == 0:
            return bits - 1
        return min((value & -value).bit_length() - 1, bits - 1)

    def add(self, item):
        """Record one occurrence of ``item`` (duplicates are free)."""
        for index in range(self.num_bitmaps):
            position = self._rho(self._hash(item, index), self.bits)
            self._bitmaps[index] |= 1 << position

    def union(self, other):
        """Merge ``other`` into this sketch (set union of the streams)."""
        if (
            other.num_bitmaps != self.num_bitmaps
            or other.bits != self.bits
        ):
            raise ValueError("cannot union sketches with different shapes")
        self._bitmaps = [
            mine | theirs for mine, theirs in zip(self._bitmaps, other._bitmaps)
        ]
        return self

    def copy(self):
        fresh = FMSketch(self.num_bitmaps, self.bits)
        fresh._bitmaps = list(self._bitmaps)
        return fresh

    def estimate(self):
        """Estimated number of distinct items added so far."""
        if not any(self._bitmaps):
            return 0.0
        total_r = 0
        for bitmap in self._bitmaps:
            r = 0
            while bitmap & (1 << r):
                r += 1
            total_r += r
        return (2.0 ** (total_r / self.num_bitmaps)) / _PHI

    @property
    def is_empty(self):
        return not any(self._bitmaps)

    def __repr__(self):
        return "FMSketch(m=%d, estimate=%.1f)" % (self.num_bitmaps, self.estimate())


class _SketchSeries:
    """Per-epoch FM sketches for one index entry."""

    __slots__ = ("num_bitmaps", "_epochs")

    def __init__(self, num_bitmaps):
        self.num_bitmaps = num_bitmaps
        self._epochs = {}

    def add(self, epoch, visitor):
        sketch = self._epochs.get(epoch)
        if sketch is None:
            sketch = self._epochs[epoch] = FMSketch(self.num_bitmaps)
        sketch.add(visitor)

    def union_into(self, target_series):
        for epoch, sketch in self._epochs.items():
            existing = target_series._epochs.get(epoch)
            if existing is None:
                target_series._epochs[epoch] = sketch.copy()
            else:
                existing.union(sketch)

    def merge_over(self, epochs, accumulator):
        for epoch in epochs:
            sketch = self._epochs.get(epoch)
            if sketch is not None:
                accumulator.union(sketch)

    def items(self):
        return self._epochs.items()


class SketchIndex:
    """R-tree + per-entry, per-epoch FM sketches of distinct visitors.

    Static structure built over per-check-in ``(poi_id, visitor_id,
    time)`` records; answers ``distinct_count(rect, interval)`` — the
    number of distinct visitors seen at POIs inside ``rect`` during
    ``interval`` — without double counting returnees, which is exactly
    where the plain aRB-tree over-counts.
    """

    def __init__(
        self,
        world,
        clock,
        node_size=1024,
        num_bitmaps=32,
        stats=None,
        min_fill_ratio=0.4,
    ):
        if not isinstance(clock, EpochClock):
            raise TypeError(
                "the sketch index shares the aRB-tree's equi-length "
                "timestamp restriction"
            )
        if world.dims != 2:
            raise ValueError("the world rectangle must be 2-D")
        self.world = world
        self.clock = clock
        self.capacity = node_capacity(node_size, dims=2)
        self.min_fill = max(1, int(self.capacity * min_fill_ratio))
        self.num_bitmaps = num_bitmaps
        self.stats = stats if stats is not None else AccessStats()
        self.root = Node(level=0)
        self._size = 0

    @classmethod
    def build(cls, positions, checkins, world, clock, **kwargs):
        """Build from ``{poi_id: (x, y)}`` and ``[(poi_id, visitor, t)]``."""
        index = cls(world=world, clock=clock, **kwargs)
        series = {
            poi_id: _SketchSeries(index.num_bitmaps) for poi_id in positions
        }
        for poi_id, visitor, t in checkins:
            series[poi_id].add(index.clock.epoch_of(t), visitor)
        entries = [
            Entry(
                Rect.from_point(positions[poi_id]),
                item=poi_id,
                tia=series[poi_id],
            )
            for poi_id in sorted(positions, key=repr)
        ]
        index._pack(entries)
        index._size = len(entries)
        return index

    def _pack(self, entries):
        level = 0
        while len(entries) > self.capacity:
            groups = str_partition(
                [entry.rect.center for entry in entries],
                self.capacity,
                min_fill=self.min_fill,
            )
            parents = []
            for group in groups:
                node = Node(level=level)
                node.entries = [entries[i] for i in group]
                for entry in node.entries:
                    if entry.child is not None:
                        entry.child.parent = node
                parents.append(self._make_parent_entry(node))
            entries = parents
            level += 1
        root = Node(level=level)
        root.entries = entries
        for entry in root.entries:
            if entry.child is not None:
                entry.child.parent = root
        self.root = root

    def _make_parent_entry(self, node):
        series = _SketchSeries(self.num_bitmaps)
        for child in node.entries:
            child.tia.union_into(series)
        return Entry(
            Rect.union_all(e.rect for e in node.entries),
            child=node,
            tia=series,
        )

    def distinct_count(self, rect, interval, semantics=IntervalSemantics.INTERSECTS):
        """Estimated distinct visitors in ``rect`` during ``interval``."""
        epochs = list(self.clock.epoch_range(interval, semantics))
        accumulator = FMSketch(self.num_bitmaps)
        if not self.root.entries or not epochs:
            return 0.0
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.stats.record_node(node.is_leaf)
            for entry in node.entries:
                if not entry.rect.intersects(rect):
                    continue
                if rect.contains_rect(entry.rect):
                    entry.tia.merge_over(epochs, accumulator)
                elif entry.child is not None:
                    stack.append(entry.child)
        return accumulator.estimate()

    def __len__(self):
        return self._size

    def __repr__(self):
        return "SketchIndex(pois=%d, m=%d)" % (self._size, self.num_bitmaps)
