"""An LRU buffer pool for simulated disk pages.

The paper keeps the R-tree in memory but makes the TIAs disk resident,
assigning "each TIA ... a maximum of 10 buffer slots".  A buffered page
access is free; a miss costs one (simulated) disk page access.  For the
*individual* query-processing baseline in Section 8.4 the TIAs get no
buffer at all, which is modelled here by ``capacity=0``.

Besides hit/miss counters the pool tracks *evictions* (pages pushed out
by the LRU policy) separately from a deliberate ``clear``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable


class LRUBufferPool:
    """A least-recently-used buffer over opaque page identifiers.

    Parameters
    ----------
    capacity:
        Number of page slots.  ``0`` disables buffering entirely (every
        access is a miss).

    The pool does not store page contents — the library keeps all data in
    Python objects — it only simulates the hit/miss behaviour needed for
    faithful page-access accounting.

    Counter contract: ``hits + misses`` equals the number of ``access``
    calls; ``evictions`` counts only capacity-driven LRU drops, never
    pages removed by :meth:`clear` (a deliberate flush, not pressure).
    """

    __slots__ = ("capacity", "_slots", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0, got %d" % capacity)
        self.capacity = capacity
        self._slots: OrderedDict[Hashable, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, page_id: Hashable) -> bool:
        """Touch ``page_id``; return ``True`` on a buffer hit."""
        if self.capacity == 0:
            self.misses += 1
            return False
        slots = self._slots
        if page_id in slots:
            slots.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        slots[page_id] = True
        if len(slots) > self.capacity:
            slots.popitem(last=False)
            self.evictions += 1
        return False

    def clear(self) -> int:
        """Empty the pool; returns the number of pages dropped.

        Neither the hit/miss counters nor the eviction counter move:
        ``clear`` models a deliberate flush, not cache pressure.
        """
        dropped = len(self._slots)
        self._slots.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, page_id: Hashable) -> bool:
        return page_id in self._slots

    def __repr__(self) -> str:
        return (
            "LRUBufferPool(capacity=%d, resident=%d, hits=%d, misses=%d, "
            "evictions=%d)"
            % (
                self.capacity,
                len(self._slots),
                self.hits,
                self.misses,
                self.evictions,
            )
        )
