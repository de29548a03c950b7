"""TIA — the temporal index on the aggregate (Section 4.1).

A TIA stores, per epoch with at least one check-in, one ``<ts, te, agg>``
record.  Every TAR-tree entry owns one: leaf-entry TIAs hold the POI's
own per-epoch counts; internal-entry TIAs hold the per-epoch *maximum*
over the child entries, which is what makes the ranking function
consistent (Property 1).

Two backends are provided:

* :class:`MemoryTIA` — a dict; no simulated I/O.  Fast, used for tests
  and for configurations where the temporal data is assumed in-memory.
* :class:`PagedTIA` — a paged B+-tree keyed by epoch index whose every
  page touch goes through a private LRU buffer (the paper assigns each
  TIA at most 10 buffer slots) and records misses into a shared
  :class:`~repro.storage.stats.AccessStats`.

The paper implements the TIA with a disk-based multi-version B-tree;
:mod:`repro.temporal.mvbt` provides that structure as well.  For the
append-mostly, epoch-keyed workload here a B+-tree is operationally
equivalent (same logarithmic search, same leaf-chain range scan) and is
the default.
"""

from __future__ import annotations

import enum
import itertools
import zlib
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from repro.storage.buffer import LRUBufferPool
from repro.storage.pager import tia_internal_capacity, tia_leaf_capacity
from repro.temporal.records import TemporalRecord

if TYPE_CHECKING:
    from repro.storage.stats import AccessStats
    from repro.temporal.epochs import EpochClock, TimeInterval, VariedEpochClock

    Clock = EpochClock | VariedEpochClock

DEFAULT_TIA_BUFFER_SLOTS = 10
DEFAULT_TIA_PAGE_SIZE = 256


class IntervalSemantics(enum.Enum):
    """How epochs are matched against the query interval ``Iq``.

    Section 3 defines the aggregate over the epochs that *intersect*
    ``Iq``; Section 4.3 describes the TIA returning records *contained*
    in ``Iq``.  Both are supported; a query applies one semantics
    consistently at every tree level, which preserves consistency.
    """

    INTERSECTS = "intersects"
    CONTAINED = "contained"


class AggregateKind(enum.Enum):
    """Which temporal aggregate the index ranks by (Section 3.1).

    The paper focuses on the *count* of check-ins but notes the methods
    "easily extend to other aggregates".  The kinds below all admit the
    per-epoch-maximum upper bound that Property 1 (BFS consistency)
    requires:

    * ``COUNT`` — number of check-ins; per-epoch values are counts and
      the interval aggregate is their sum.
    * ``SUM`` — sum of a non-negative check-in attribute (e.g. likes);
      identical machinery with weighted per-epoch values.
    * ``MAX`` — largest per-epoch value inside the interval (e.g. the
      peak hourly crowd); the interval aggregate is a max, not a sum.

    ``average`` (= sum/count) is deliberately not offered: it has no
    upper bound derivable from the per-epoch maxima of a single TIA, so
    it cannot be indexed without pairing two TIAs per entry; rank by
    ``SUM`` and divide by the interval length at presentation time
    instead.
    """

    COUNT = "count"
    SUM = "sum"
    MAX = "max"

    def combine(
        self,
        tia: BaseTIA,
        clock: Clock,
        interval: TimeInterval,
        semantics: IntervalSemantics,
    ) -> int:
        """Evaluate this aggregate on ``tia`` over ``interval``."""
        epoch_range = clock.epoch_range(interval, semantics)
        if not epoch_range:
            return 0
        if self is AggregateKind.MAX:
            return tia.range_max(epoch_range.start, epoch_range.stop - 1)
        return tia.range_sum(epoch_range.start, epoch_range.stop - 1)


class BaseTIA:
    """Interface shared by the TIA backends.

    Epochs are addressed by index (see :mod:`repro.temporal.epochs`);
    values are non-negative ints.  A value of zero is never stored — the
    TIA only keeps non-zero aggregates, exactly as in the paper.
    """

    def get(self, epoch_index: int) -> int:
        """Aggregate stored for ``epoch_index`` (0 when absent)."""
        raise NotImplementedError

    def set(self, epoch_index: int, agg: int) -> None:
        """Store ``agg`` for ``epoch_index`` (overwrite; drop when 0)."""
        raise NotImplementedError

    def raise_to(self, epoch_index: int, agg: int) -> bool:
        """Raise the stored value to at least ``agg``.

        Returns ``True`` when the stored value changed.  This is the
        update internal entries apply when a child reports a larger
        per-epoch aggregate.
        """
        if agg <= 0:
            return False
        current = self.get(epoch_index)
        if agg > current:
            self.set(epoch_index, agg)
            return True
        return False

    def add(self, epoch_index: int, delta: int) -> None:
        """Add ``delta`` check-ins to ``epoch_index`` (leaf-entry update)."""
        if delta == 0:
            return
        self.set(epoch_index, self.get(epoch_index) + delta)

    def range_sum(self, first_epoch: int, last_epoch: int) -> int:
        """Sum of aggregates over epoch indices in ``[first, last]``."""
        raise NotImplementedError

    def range_max(self, first_epoch: int, last_epoch: int) -> int:
        """Largest aggregate over epoch indices in ``[first, last]``.

        Default implementation scans :meth:`items`; paged backends
        override it with an I/O-charged traversal.
        """
        best = 0
        for epoch, value in self.items():
            if first_epoch <= epoch <= last_epoch and value > best:
                best = value
        return best

    def items(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(epoch_index, agg)`` in epoch order."""
        raise NotImplementedError

    def replace_all(self, epoch_aggregates: Mapping[int, int]) -> None:
        """Replace the whole content with ``{epoch_index: agg}``."""
        raise NotImplementedError

    # -- derived operations --------------------------------------------------

    def aggregate(
        self,
        clock: Clock,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
        kind: AggregateKind | None = None,
    ) -> int:
        """The temporal aggregate ``g`` over ``interval`` (un-normalised).

        Combines the stored records whose epoch matches ``interval``
        under the chosen semantics — a sum for ``COUNT``/``SUM`` (the
        default), a maximum for ``MAX``.
        """
        if kind is None:
            kind = AggregateKind.COUNT
        return kind.combine(self, clock, interval, semantics)

    def records(self, clock: Clock) -> list[TemporalRecord]:
        """Materialise the stored ``<ts, te, agg>`` triples."""
        return [
            TemporalRecord(*clock.bounds(index), agg) for index, agg in self.items()
        ]

    def total(self) -> int:
        """Sum over every stored epoch."""
        return sum(agg for _, agg in self.items())

    def mean_rate(self, num_epochs: int) -> float:
        """The paper's third-dimension statistic ``lambda-hat``.

        The average aggregate per epoch over ``num_epochs`` elapsed epochs
        (epochs without check-ins count as zero), i.e. the estimated
        Poisson rate of check-ins at the POI.
        """
        if num_epochs <= 0:
            return 0.0
        return self.total() / float(num_epochs)

    def as_dict(self) -> dict[int, int]:
        """Materialise the content as ``{epoch_index: agg}``.

        A structural read (like :meth:`items`): not charged as simulated
        I/O, used by validation, recovery and maintenance code.
        """
        return dict(self.items())

    def fingerprint(self) -> int:
        """CRC-32 over the canonical content; a cheap equality probe.

        Two TIAs storing the same per-epoch aggregates fingerprint
        identically regardless of backend — the hook for background
        scrubbing and for fast divergence checks in the reliability
        layer.
        """
        crc = 0
        for epoch, agg in self.items():
            crc = zlib.crc32(("%r:%r;" % (epoch, agg)).encode("ascii"), crc)
        return crc & 0xFFFFFFFF

    def __len__(self) -> int:
        return sum(1 for _ in self.items())


class MemoryTIA(BaseTIA):
    """Dict-backed TIA with no I/O simulation."""

    __slots__ = ("_epochs",)

    def __init__(self) -> None:
        self._epochs: dict[int, int] = {}

    def get(self, epoch_index: int) -> int:
        return self._epochs.get(epoch_index, 0)

    def set(self, epoch_index: int, agg: int) -> None:
        if agg < 0:
            raise ValueError("aggregate must be >= 0, got %r" % (agg,))
        if agg == 0:
            self._epochs.pop(epoch_index, None)
        else:
            self._epochs[epoch_index] = agg

    def range_sum(self, first_epoch: int, last_epoch: int) -> int:
        epochs = self._epochs
        if not epochs:
            return 0
        span = last_epoch - first_epoch + 1
        if span <= 0:
            return 0
        if span < len(epochs):
            return sum(
                epochs.get(i, 0) for i in range(first_epoch, last_epoch + 1)
            )
        return sum(
            agg for index, agg in epochs.items() if first_epoch <= index <= last_epoch
        )

    def range_max(self, first_epoch: int, last_epoch: int) -> int:
        return max(
            (
                agg
                for index, agg in self._epochs.items()
                if first_epoch <= index <= last_epoch
            ),
            default=0,
        )

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._epochs.items()))

    def replace_all(self, epoch_aggregates: Mapping[int, int]) -> None:
        self._epochs = {
            index: agg for index, agg in epoch_aggregates.items() if agg > 0
        }

    def __len__(self) -> int:
        return len(self._epochs)

    def __repr__(self) -> str:
        return "MemoryTIA(%d epochs, total=%d)" % (len(self._epochs), self.total())


# ---------------------------------------------------------------------------
# Paged B+-tree backend
# ---------------------------------------------------------------------------

_page_ids = itertools.count()


class _LeafPage:
    __slots__ = ("page_id", "keys", "values", "next")

    def __init__(self) -> None:
        self.page_id = next(_page_ids)
        self.keys: list[int] = []
        self.values: list[int] = []
        self.next: _LeafPage | None = None


class _InternalPage:
    __slots__ = ("page_id", "keys", "children")

    def __init__(self) -> None:
        self.page_id = next(_page_ids)
        # keys[i] is the smallest key reachable under children[i + 1].
        self.keys: list[int] = []
        self.children: list[_Page] = []


_Page = _LeafPage | _InternalPage


class PagedTIA(BaseTIA):
    """A TIA stored as a paged B+-tree keyed by epoch index.

    Every page touched by :meth:`get`, :meth:`set` or :meth:`range_sum`
    first consults the TIA's private LRU buffer; misses are recorded as
    TIA page accesses in the shared ``stats`` object.  Range sums walk the
    linked leaf chain, as a disk-based temporal index would.

    Parameters
    ----------
    stats:
        Shared :class:`~repro.storage.stats.AccessStats` (may be ``None``).
    page_size:
        Page size in bytes; record capacity follows the 12-byte
        ``<ts, te, agg>`` layout of :mod:`repro.storage.pager`.
    buffer_slots:
        LRU slots for this TIA (the paper's default is 10; Section 8.4's
        *individual* baseline uses 0).
    """

    __slots__ = ("stats", "leaf_capacity", "internal_capacity", "buffer", "_root", "_count")

    def __init__(
        self,
        stats: AccessStats | None = None,
        page_size: int = DEFAULT_TIA_PAGE_SIZE,
        buffer_slots: int = DEFAULT_TIA_BUFFER_SLOTS,
    ) -> None:
        self.stats = stats
        self.leaf_capacity = tia_leaf_capacity(page_size)
        self.internal_capacity = tia_internal_capacity(page_size)
        self.buffer = LRUBufferPool(buffer_slots)
        self._root: _Page = _LeafPage()
        self._count = 0

    # -- page access accounting ----------------------------------------------

    def _touch(self, page: _Page) -> None:
        hit = self.buffer.access(page.page_id)
        if self.stats is not None:
            self.stats.record_tia_page(buffered=hit)

    # -- navigation ------------------------------------------------------------

    def _descend(self, key: int) -> tuple[_LeafPage, list[tuple[_InternalPage, int]]]:
        """Return ``(leaf, path)`` for ``key``; path holds (internal, index)."""
        page = self._root
        path: list[tuple[_InternalPage, int]] = []
        while isinstance(page, _InternalPage):
            self._touch(page)
            index = self._child_index(page, key)
            path.append((page, index))
            page = page.children[index]
        self._touch(page)
        return page, path

    @staticmethod
    def _child_index(page: _InternalPage, key: int) -> int:
        index = 0
        keys = page.keys
        while index < len(keys) and key >= keys[index]:
            index += 1
        return index

    # -- BaseTIA operations ------------------------------------------------------

    def get(self, epoch_index: int) -> int:
        leaf, _ = self._descend(epoch_index)
        keys = leaf.keys
        for i, stored in enumerate(keys):
            if stored == epoch_index:
                return leaf.values[i]
            if stored > epoch_index:
                break
        return 0

    def set(self, epoch_index: int, agg: int) -> None:
        if agg < 0:
            raise ValueError("aggregate must be >= 0, got %r" % (agg,))
        leaf, path = self._descend(epoch_index)
        keys = leaf.keys
        position = len(keys)
        for i, stored in enumerate(keys):
            if stored == epoch_index:
                if agg == 0:
                    del leaf.keys[i]
                    del leaf.values[i]
                    self._count -= 1
                else:
                    leaf.values[i] = agg
                return
            if stored > epoch_index:
                position = i
                break
        if agg == 0:
            return
        leaf.keys.insert(position, epoch_index)
        leaf.values.insert(position, agg)
        self._count += 1
        if len(leaf.keys) > self.leaf_capacity:
            self._split_leaf(leaf, path)

    def _split_leaf(
        self, leaf: _LeafPage, path: list[tuple[_InternalPage, int]]
    ) -> None:
        mid = len(leaf.keys) // 2
        sibling = _LeafPage()
        sibling.keys = leaf.keys[mid:]
        sibling.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        sibling.next = leaf.next
        leaf.next = sibling
        self._insert_into_parent(leaf, sibling.keys[0], sibling, path)

    def _insert_into_parent(
        self,
        left: _Page,
        separator: int,
        right: _Page,
        path: list[tuple[_InternalPage, int]],
    ) -> None:
        if not path:
            root = _InternalPage()
            root.keys = [separator]
            root.children = [left, right]
            self._root = root
            return
        parent, index = path[-1]
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, right)
        if len(parent.children) > self.internal_capacity:
            self._split_internal(parent, path[:-1])

    def _split_internal(
        self, page: _InternalPage, path: list[tuple[_InternalPage, int]]
    ) -> None:
        mid = len(page.keys) // 2
        separator = page.keys[mid]
        sibling = _InternalPage()
        sibling.keys = page.keys[mid + 1 :]
        sibling.children = page.children[mid + 1 :]
        page.keys = page.keys[:mid]
        page.children = page.children[: mid + 1]
        self._insert_into_parent(page, separator, sibling, path)

    def range_sum(self, first_epoch: int, last_epoch: int) -> int:
        if last_epoch < first_epoch or self._count == 0:
            return 0
        leaf: _LeafPage | None
        leaf, _ = self._descend(first_epoch)
        total = 0
        while leaf is not None:
            done = False
            for key, value in zip(leaf.keys, leaf.values):
                if key < first_epoch:
                    continue
                if key > last_epoch:
                    done = True
                    break
                total += value
            if done:
                break
            leaf = leaf.next
            if leaf is not None:
                self._touch(leaf)
                if leaf.keys and leaf.keys[0] > last_epoch:
                    break
        return total

    def range_max(self, first_epoch: int, last_epoch: int) -> int:
        if last_epoch < first_epoch or self._count == 0:
            return 0
        leaf: _LeafPage | None
        leaf, _ = self._descend(first_epoch)
        best = 0
        while leaf is not None:
            done = False
            for key, value in zip(leaf.keys, leaf.values):
                if key < first_epoch:
                    continue
                if key > last_epoch:
                    done = True
                    break
                if value > best:
                    best = value
            if done:
                break
            leaf = leaf.next
            if leaf is not None:
                self._touch(leaf)
                if leaf.keys and leaf.keys[0] > last_epoch:
                    break
        return best

    def items(self) -> Iterator[tuple[int, int]]:
        # Structural iteration for maintenance and the packed frames; not
        # charged as I/O.  Collected a leaf page at a time (in C) rather
        # than yielded record by record: a frame build reads every record.
        page: _Page | None = self._root
        while isinstance(page, _InternalPage):
            page = page.children[0]
        records: list[tuple[int, int]] = []
        while page is not None:
            records += zip(page.keys, page.values)
            page = page.next
        return iter(records)

    def replace_all(self, epoch_aggregates: Mapping[int, int]) -> None:
        items = sorted(
            (index, agg) for index, agg in epoch_aggregates.items() if agg > 0
        )
        root = _LeafPage()
        self._root = root
        self._count = 0
        self.buffer.clear()
        # Bulk-load left to right; pages fill to capacity.
        leaves: list[_Page] = []
        current = root
        for key, value in items:
            if len(current.keys) >= self.leaf_capacity:
                fresh = _LeafPage()
                current.next = fresh
                leaves.append(current)
                current = fresh
            current.keys.append(key)
            current.values.append(value)
            self._count += 1
        leaves.append(current)
        self._root = self._build_internal_levels(leaves)

    def _build_internal_levels(self, pages: Sequence[_Page]) -> _Page:
        if len(pages) == 1:
            return pages[0]
        parents: list[_Page] = []
        current = _InternalPage()
        current.children.append(pages[0])
        for page in pages[1:]:
            if len(current.children) >= self.internal_capacity:
                parents.append(current)
                current = _InternalPage()
                current.children.append(page)
            else:
                current.keys.append(self._smallest_key(page))
                current.children.append(page)
        parents.append(current)
        return self._build_internal_levels(parents)

    @staticmethod
    def _smallest_key(page: _Page) -> int:
        while isinstance(page, _InternalPage):
            page = page.children[0]
        return page.keys[0]

    def __len__(self) -> int:
        return self._count

    def page_count(self) -> int:
        """Number of pages in the tree (walks the structure)."""
        count = 0
        stack: list[_Page] = [self._root]
        while stack:
            page = stack.pop()
            count += 1
            if isinstance(page, _InternalPage):
                stack.extend(page.children)
        return count

    def __repr__(self) -> str:
        return "PagedTIA(%d epochs, %d pages)" % (self._count, self.page_count())


def make_tia_factory(
    backend: str,
    stats: AccessStats | None = None,
    page_size: int = DEFAULT_TIA_PAGE_SIZE,
    buffer_slots: int = DEFAULT_TIA_BUFFER_SLOTS,
) -> Callable[[], BaseTIA]:
    """Return a zero-argument callable producing fresh TIAs.

    ``backend`` is ``"memory"``, ``"paged"`` or ``"mvbt"``.  The TAR-tree
    uses the factory to equip every new entry with its own TIA.
    """
    if backend == "memory":
        return MemoryTIA
    if backend == "paged":
        return lambda: PagedTIA(
            stats=stats, page_size=page_size, buffer_slots=buffer_slots
        )
    if backend == "mvbt":
        from repro.temporal.mvbt import MVBTTIA

        return lambda: MVBTTIA(
            stats=stats, page_size=page_size, buffer_slots=buffer_slots
        )
    raise ValueError("unknown TIA backend %r" % (backend,))
