"""The ``<ts, te, agg>`` temporal record (Section 4.1)."""

from __future__ import annotations

from typing import NamedTuple


class TemporalRecord(NamedTuple):
    """One non-zero aggregate over one epoch.

    ``ts`` / ``te`` bound the epoch (``te`` may be ``inf`` for the open
    tail epoch of a :class:`~repro.temporal.epochs.VariedEpochClock`) and
    ``agg`` is the aggregate value during the epoch — for leaf entries the
    POI's own count, for internal entries the maximum over the child
    entries' values.
    """

    ts: float
    te: float
    agg: int
