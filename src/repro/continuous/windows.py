"""Sliding-window derivation for standing kNNTA subscriptions.

A subscription asks for "the last ``window_epochs`` epochs, as of the
tree's clock".  :func:`window_state` turns ``(clock, current_time,
window_epochs, semantics)`` into the concrete
:class:`~repro.temporal.epochs.TimeInterval` a one-shot
:class:`~repro.core.query.KNNTAQuery` would carry — and, crucially, the
epoch range is *derived from that interval* through
``clock.epoch_range(interval, semantics)``, never computed separately.
That makes a subscription's window and the interval its ``tree.query()``
carries agree by construction: both see exactly the epochs the interval
selects under the subscription's semantics.

The interval endpoints are chosen so the selected epochs are the
trailing ``window_epochs`` ones:

* the start is the ``ts`` of the first trailing epoch;
* for ``CONTAINED`` the end is the last epoch's ``te`` (its span must
  lie inside the interval), falling back to ``ts`` when the epoch is
  the open tail of a :class:`~repro.temporal.epochs.VariedEpochClock`
  (an infinite epoch is never contained in a finite interval);
* for ``INTERSECTS`` the end is the last epoch's midpoint (an endpoint
  at ``te`` would also intersect the *next* epoch), again falling back
  to ``ts`` for the open tail.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from repro.temporal.epochs import EpochClock, TimeInterval, VariedEpochClock
from repro.temporal.tia import IntervalSemantics

Clock = Union[EpochClock, VariedEpochClock]


class WindowState(NamedTuple):
    """One subscription's window at one instant of the tree clock.

    ``epochs`` is the range ``clock.epoch_range(interval, semantics)``
    selects — the single source of truth for which epochs are "in" the
    window (it can be narrower than ``[first_epoch, latest_epoch]``,
    e.g. ``CONTAINED`` over a clock with an open tail epoch).
    """

    interval: TimeInterval
    epochs: range
    first_epoch: int
    latest_epoch: int

    def describe(self) -> dict[str, object]:
        """JSON-ready summary (used by the wire layer and the CLI)."""
        return {
            "interval": [self.interval.start, self.interval.end],
            "epochs": [self.epochs.start, self.epochs.stop],
            "first_epoch": self.first_epoch,
            "latest_epoch": self.latest_epoch,
        }


def window_state(
    clock: Clock,
    current_time: float,
    window_epochs: int,
    semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
) -> WindowState:
    """The trailing-``window_epochs`` window as of ``current_time``.

    The latest epoch is the newest one that has begun by
    ``current_time`` (epoch 0 before the clock starts); the window
    covers it and the ``window_epochs - 1`` epochs before it, clamped
    at epoch 0.
    """
    if window_epochs < 1:
        raise ValueError("window_epochs must be >= 1, got %d" % window_epochs)
    latest = max(clock.num_epochs(current_time) - 1, 0)
    first = max(latest - window_epochs + 1, 0)
    start = clock.bounds(first)[0]
    ts_last, te_last = clock.bounds(latest)
    if semantics.name == "CONTAINED":
        end = te_last if math.isfinite(te_last) else ts_last
    else:
        end = (ts_last + te_last) / 2.0 if math.isfinite(te_last) else ts_last
    interval = TimeInterval(start, end)
    epochs = clock.epoch_range(interval, semantics)
    return WindowState(interval, epochs, first, latest)
