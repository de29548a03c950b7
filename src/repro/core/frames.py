"""Epoch-indexed packed frames for TAR-tree nodes (the kNNTA hot path).

The best-first search scores every entry of every expanded node: MINDIST
from the query point to the entry's MBR plus the Property-1 aggregate
bound its TIA reports over the query interval.  On the object path that
walk chases Python objects — ``Node`` → ``Entry`` list → ``Rect`` →
TIA handle — and the TIA read descends a paged B+-tree per entry.  A
:class:`NodeFrame` flattens one node's scoring inputs into contiguous
buffers so the inner loop reads plain machine values:

* ``coords`` (``array('d')``, 4 per entry) — the entry MBR as
  ``[lo_x, hi_x, lo_y, hi_y]``, in entry order.
* ``epochs`` — the frame's columns: the sorted distinct epochs that any
  of its entries stores (leaf counts, or the per-epoch child maxima of
  Property 1 for internal entries).
* ``table`` — one dense row per entry over those columns.  For
  COUNT/SUM a row holds the ``width + 1`` prefix sums ``F(0) = 0, F(1),
  ..., F(width)``, ``F(c)`` summing the entry's values at the first
  ``c`` columns; for MAX it holds the ``width`` per-column values, zero
  where the entry stores nothing.  Cells take the narrowest typecode
  holding the frame's largest cell — ``'H'``, else ``'I'``, else
  ``'q'``.

Frame index ``i`` corresponds to ``node.entries[i]`` — the entry list
itself stays the payload/child handle, so heap contents (and therefore
tie-breaking) are identical between the packed and object paths.

:meth:`NodeFrame.aggregates` folds a window of epochs ``[start, stop)``
for every entry at once.  The window becomes the columns ``[s, t)`` by
two bisects into ``epochs``, once per node (no entry stores anything
between columns); a COUNT/SUM aggregate is then the prefix difference
``F(t) - F(s)`` — two array reads, taken as two strided slices of the
table — and a MAX aggregate is ``max`` over the row's slice, exact
because TIAs store only positive values.  Either way it is the value
``BaseTIA.aggregate`` computes, without touching the TIA backend (and
hence without simulated TIA page I/O: the packed path reads zero TIA
pages, which is the point).  MINDIST replicates
:meth:`repro.spatial.geometry.Rect.min_dist` operation for operation,
so scores are bit-identical to the object path.  This module is the
only one that knows the table's layout.

Size: a table holds ``entries × width`` cells (plus one per entry for
the prefix rows), so it grows with how many distinct epochs a node
stores, never with the epoch values themselves — a history ``{0: 1,
10**9: 1}`` is two columns.  What a cell costs per stored record is set
by the node's *density*, an entry's records divided by the node's
columns: rows are dense, so an entry that stores few of its node's
epochs still pays a cell for each.  Weekly epochs on the NYC stand-in
hold about 3 cells per record; daily epochs on NYC and LA about 7–8,
with single nodes reaching 21 per record or entry.  A node needing
more than ``MAX_CELLS_PER_ITEM`` cells per record or entry it stores
gets no table and is scored on the object path, which bounds every
frame by what its node stores.

:class:`EpochRow` is the same fold over one ``{epoch: value}``
mapping, without the dense rows; the tree's normaliser, the cluster's
shard descriptors and its merged normaliser maxima use it.

Invalidation: stamps
--------------------

A frame lives in its node's ``frame`` slot, built lazily on first
access.  Every :class:`~repro.spatial.rstar.Node` carries a ``stamp``
counter; the TAR-tree bumps it whenever the node's entry list or any
entry's rect/MBR/TIA content changes (insert, delete, split, forced
reinsertion, condensation, digest propagation, scrubber repair).  A
frame records the stamp it was built under and is rebuilt when that no
longer matches, so a write rebuilds exactly the frames of the nodes it
stamped, and a frame invalidated *mid-flight* (a mutation interleaved
with an incremental ``knnta_browse``) is safe: the next expansion
simply rebuilds.  A frame of a node that left the tree goes with it.

Fallback triggers
-----------------

The search falls back to the object path per node whenever
:meth:`FrameStore.frame` returns ``None``:

* the store is disabled — permanently so after
  :meth:`~repro.core.tar_tree.TARTree.wrap_tias`, because wrapped TIAs
  (fault injectors, retry shims) must see every read the search makes;
* the node's largest cell exceeds ``2**63 - 1``;
* the node is sparser than ``MAX_CELLS_PER_ITEM`` allows;
* the tree behind a duck-typed view exposes no store at all
  (``frames`` resolves to ``None``).

Mixing is safe: a packed push and an object push of the same entry
produce bit-identical heap tuples.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from operator import sub
from struct import pack
from typing import TYPE_CHECKING, Iterable, Mapping, cast

from repro.temporal.tia import AggregateKind

if TYPE_CHECKING:
    from repro.core.tar_tree import TARTree
    from repro.spatial.rstar import Node

#: Cell typecodes, narrowest first, with the largest value each holds.
_TYPECODES: tuple[tuple[str, int], ...] = (
    ("H", 0xFFFF),
    ("I", 0xFFFFFFFF),
    ("q", 2**63 - 1),
)

#: The most table cells a frame may hold per TIA record or entry its
#: node stores (64 bytes at 2-byte cells).  Bounds a frame by what its
#: node stores; the sparsest node measured on the four data sets at
#: daily epochs needs 21.
MAX_CELLS_PER_ITEM = 32


class NodeFrame:
    """The packed scoring inputs of one node, at one mutation stamp.

    ``table`` is ``None`` when a cell exceeds every typecode or the
    node is too sparse; such a frame only records that its node is
    scored on the object path.
    """

    __slots__ = ("stamp", "count", "coords", "epochs", "prefix", "table")

    def __init__(
        self,
        stamp: int,
        count: int,
        coords: array[float],
        epochs: list[int],
        prefix: bool,
        table: array[int] | None,
    ) -> None:
        self.stamp = stamp
        self.count = count
        self.coords = coords
        self.epochs = epochs
        self.prefix = prefix
        self.table = table

    def aggregates(self, start: int, stop: int) -> Iterable[int]:
        """Every entry's aggregate over epochs ``[start, stop)``, in
        entry order (a frame with a table only)."""
        table = cast("array[int]", self.table)
        epochs = self.epochs
        s = bisect_left(epochs, start)
        t = bisect_left(epochs, stop, s)
        if t == s:
            return [0] * self.count
        width = len(epochs)
        if self.prefix:
            stride = width + 1
            return map(sub, table[t::stride], table[s::stride])
        if t - s == 1:
            return table[s::width]
        return [max(table[j + s : j + t]) for j in range(0, len(table), width)]

    def __repr__(self) -> str:
        return "NodeFrame(entries=%d, epochs=%d, typecode=%s, stamp=%d)" % (
            self.count,
            len(self.epochs),
            "-" if self.table is None else self.table.typecode,
            self.stamp,
        )


def build_frame(node: Node, prefix: bool) -> NodeFrame:
    """Pack ``node``'s entries into a fresh :class:`NodeFrame`.

    ``prefix`` selects COUNT/SUM rows (prefix sums) over MAX rows
    (per-epoch values).  Reads MBRs and TIA contents through the object
    layer; TIA ``items`` is a structural read, so building charges no
    simulated I/O.  The columns and the node's record count are known
    before any row is allocated, so a node too sparse for
    ``MAX_CELLS_PER_ITEM`` costs no table.
    """
    entries = node.entries
    coords = array("d")
    histories: list[list[tuple[int, int]]] = []
    records = 0
    for entry in entries:
        mbr = entry.mbr
        lows = mbr.lows
        highs = mbr.highs
        coords.append(lows[0])
        coords.append(highs[0])
        coords.append(lows[1])
        coords.append(highs[1])
        items = list(entry.tia.items())
        histories.append(items)
        records += len(items)
    epochs = sorted({epoch for items in histories for epoch, _ in items})
    count = len(entries)
    table: array[int] | None = None
    if count * (len(epochs) + prefix) <= MAX_CELLS_PER_ITEM * (records + count):
        table = _pack(histories, epochs, prefix)
    return NodeFrame(node.stamp, count, coords, epochs, prefix, table)


def _pack(
    histories: list[list[tuple[int, int]]], epochs: list[int], prefix: bool
) -> array[int] | None:
    """The rows of ``histories`` over the columns ``epochs``, in the
    narrowest typecode that holds them; ``None`` when none does."""
    width = len(epochs)
    column = dict(zip(epochs, range(width)))
    # Rows go through one list of Python ints and one ``struct.pack``
    # into the final typecode: both run in C, twice as fast per cell as
    # converting the list with ``array(typecode, cells)``.
    cells: list[int] = []
    top = 0
    for items in histories:
        row = [0] * width
        for epoch, value in items:
            row[column[epoch]] = value
        if prefix:
            cells += accumulate(row, initial=0)
            if cells[-1] > top:
                top = cells[-1]
        else:
            cells += row
    if not prefix:
        top = max(cells, default=0)
    for typecode, limit in _TYPECODES:
        if top <= limit:
            return array(typecode, pack("%d%s" % (len(cells), typecode), *cells))
    return None


class EpochRow:
    """One ``{epoch: value}`` mapping as sorted epochs plus prefix sums.

    :meth:`fold` combines a window of epochs — a sum for COUNT/SUM, a
    max for MAX — with two bisects and two list reads (a slice max for
    MAX), where iterating the window costs a lookup per epoch.  Holds
    one slot per stored epoch, whatever the epochs' values.  Values
    must be non-negative.
    """

    __slots__ = ("epochs", "values", "sums")

    def __init__(self, values: Mapping[int, int]) -> None:
        self.epochs = sorted(values)
        self.values = [values[epoch] for epoch in self.epochs]
        self.sums = list(accumulate(self.values, initial=0))

    def fold(self, start: int, stop: int, kind: AggregateKind) -> int:
        """The ``kind`` aggregate of the values in ``[start, stop)``."""
        epochs = self.epochs
        s = bisect_left(epochs, start)
        t = bisect_left(epochs, stop, s)
        if t == s:
            return 0
        if kind is AggregateKind.MAX:
            return max(self.values[s:t])
        return self.sums[t] - self.sums[s]


class FrameStore:
    """Lazy frames for one TAR-tree, kept in each node's ``frame`` slot.

    Thread-safety matches the tree's own contract: concurrent readers
    may race to build the same frame (both builds are identical, last
    write wins); mutations bump stamps on the mutation path, which
    callers already serialise against readers (the service's
    readers-writer lock).
    """

    __slots__ = ("_tree", "enabled")

    def __init__(self, tree: TARTree) -> None:
        self._tree = tree
        self.enabled = True

    def frame(self, node: Node) -> NodeFrame | None:
        """The current frame for ``node``; ``None`` when disabled, when
        the node's cells fit no typecode or when it is too sparse.

        Serves the node's frame only while its stamp and entry count
        still match the node; otherwise rebuilds from the object layer.
        """
        if not self.enabled:
            return None
        frame = node.frame
        if (
            frame is None
            or frame.stamp != node.stamp
            or frame.count != len(node.entries)
        ):
            frame = node.frame = build_frame(
                node, self._tree.aggregate_kind is not AggregateKind.MAX
            )
        return None if frame.table is None else frame

    def disable(self) -> None:
        """Permanently route queries to the object path.

        Called by :meth:`~repro.core.tar_tree.TARTree.wrap_tias`:
        wrapped TIAs (fault injection, retry accounting) must observe
        every aggregate read, which the packed path would bypass.
        """
        self.enabled = False
        stack = [self._tree.root]
        while stack:
            node = stack.pop()
            node.frame = None
            stack.extend(e.child for e in node.entries if e.child is not None)

    def __repr__(self) -> str:
        return "FrameStore(enabled=%r)" % (self.enabled,)
