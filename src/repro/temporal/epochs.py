"""Time intervals and epoch discretisation.

Times are floats in application units (the paper and our data sets use
days).  The application starts at ``t0``; an epoch clock partitions
``[t0, infinity)`` into consecutive epochs ``[ts, te)``.  Epochs "may be a
second, an hour or of varied lengths (e.g., one hour, two hours, four
hours, eight hours and so on) depending on the application" — both the
uniform and the varied-length flavours are implemented.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.temporal.tia import IntervalSemantics

_EPSILON = 1e-9


class TimeInterval:
    """A closed time interval ``[start, end]`` (the query's ``Iq``)."""

    __slots__ = ("start", "end")

    def __init__(self, start: float, end: float) -> None:
        start = float(start)
        end = float(end)
        if start > end:
            raise ValueError("interval start %r exceeds end %r" % (start, end))
        self.start = start
        self.end = end

    def intersects(self, ts: float, te: float) -> bool:
        """True when the epoch ``[ts, te)`` intersects this interval."""
        return ts <= self.end and te > self.start

    def contains(self, ts: float, te: float) -> bool:
        """True when the epoch ``[ts, te)`` lies inside this interval."""
        return ts >= self.start - _EPSILON and te <= self.end + _EPSILON

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TimeInterval)
            and self.start == other.start
            and self.end == other.end
        )

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return "TimeInterval(%g, %g)" % (self.start, self.end)


class EpochClock:
    """Uniform epochs of ``epoch_length`` time units starting at ``t0``.

    Epoch ``i`` covers ``[t0 + i*L, t0 + (i+1)*L)``.  The clock is
    unbounded: any time at or after ``t0`` maps to an epoch.
    """

    __slots__ = ("t0", "epoch_length")

    def __init__(self, t0: float, epoch_length: float) -> None:
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive, got %r" % (epoch_length,))
        self.t0 = float(t0)
        self.epoch_length = float(epoch_length)

    def epoch_of(self, t: float) -> int:
        """Index of the epoch containing time ``t`` (``t >= t0``)."""
        if t < self.t0 - _EPSILON:
            raise ValueError("time %r precedes the application start %r" % (t, self.t0))
        return int(math.floor((t - self.t0) / self.epoch_length + _EPSILON))

    def bounds(self, index: int) -> tuple[float, float]:
        """``(ts, te)`` bounds of epoch ``index``."""
        if index < 0:
            raise ValueError("epoch index must be >= 0, got %d" % index)
        ts = self.t0 + index * self.epoch_length
        return ts, ts + self.epoch_length

    def num_epochs(self, current_time: float) -> int:
        """Number of epochs fully or partially elapsed by ``current_time``."""
        if current_time <= self.t0:
            return 0
        return int(
            math.ceil((current_time - self.t0) / self.epoch_length - _EPSILON)
        )

    def epochs_intersecting(self, interval: TimeInterval) -> range:
        """Range of epoch indices whose span intersects ``interval``."""
        first = max(0, self.epoch_of(max(interval.start, self.t0)))
        last = self.epoch_of(max(interval.end, self.t0))
        return range(first, last + 1)

    def epochs_contained(self, interval: TimeInterval) -> range:
        """Range of epoch indices whose span lies inside ``interval``."""
        length = self.epoch_length
        first = int(math.ceil((interval.start - self.t0) / length - _EPSILON))
        first = max(0, first)
        last = int(math.floor((interval.end - self.t0) / length + _EPSILON)) - 1
        if last < first:
            return range(first, first)
        return range(first, last + 1)

    def epoch_range(self, interval: TimeInterval, semantics: IntervalSemantics) -> range:
        """Dispatch on an :class:`~repro.temporal.tia.IntervalSemantics`."""
        if semantics.name == "CONTAINED":
            return self.epochs_contained(interval)
        return self.epochs_intersecting(interval)

    def __repr__(self) -> str:
        return "EpochClock(t0=%g, epoch_length=%g)" % (self.t0, self.epoch_length)


class VariedEpochClock:
    """Epochs of varied lengths defined by an explicit boundary list.

    ``boundaries`` is a strictly increasing sequence ``[b0, b1, ..., bn]``
    defining epochs ``[b0, b1), [b1, b2), ...``.  The final epoch extends
    to infinity past ``bn`` (so the clock, like :class:`EpochClock`, never
    runs out).  This is what makes B-tree-per-timestamp designs such as
    the aRB-tree inapplicable (Section 2) while the TIA still works.
    """

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: Iterable[float]) -> None:
        boundaries = [float(b) for b in boundaries]
        if len(boundaries) < 2:
            raise ValueError("need at least two boundaries (one epoch)")
        for earlier, later in zip(boundaries, boundaries[1:]):
            if later <= earlier:
                raise ValueError("boundaries must strictly increase")
        self.boundaries = boundaries

    @classmethod
    def exponential(
        cls, t0: float, first_length: float, count: int, factor: float = 2.0
    ) -> VariedEpochClock:
        """Build epochs of lengths ``first_length * factor**i`` (the paper's
        'one hour, two hours, four hours, eight hours and so on')."""
        if count < 1:
            raise ValueError("count must be >= 1")
        boundaries = [float(t0)]
        length = float(first_length)
        for _ in range(count):
            boundaries.append(boundaries[-1] + length)
            length *= factor
        return cls(boundaries)

    @property
    def t0(self) -> float:
        return self.boundaries[0]

    def epoch_of(self, t: float) -> int:
        if t < self.t0 - _EPSILON:
            raise ValueError("time %r precedes the application start %r" % (t, self.t0))
        index = bisect.bisect_right(self.boundaries, t + _EPSILON) - 1
        return min(index, len(self.boundaries) - 2 + 1)  # allow the open last epoch

    def bounds(self, index: int) -> tuple[float, float]:
        last_defined = len(self.boundaries) - 2
        if index < 0:
            raise ValueError("epoch index must be >= 0, got %d" % index)
        if index <= last_defined:
            return self.boundaries[index], self.boundaries[index + 1]
        if index == last_defined + 1:
            return self.boundaries[-1], math.inf
        raise ValueError("epoch index %d beyond the open tail epoch" % index)

    def num_epochs(self, current_time: float) -> int:
        if current_time <= self.t0:
            return 0
        return bisect.bisect_left(self.boundaries, current_time - _EPSILON)

    def epochs_intersecting(self, interval: TimeInterval) -> range:
        first = self.epoch_of(max(interval.start, self.t0))
        last = self.epoch_of(max(interval.end, self.t0))
        return range(first, last + 1)

    def epochs_contained(self, interval: TimeInterval) -> range:
        candidates = self.epochs_intersecting(interval)
        contained = [
            i for i in candidates if interval.contains(*self.bounds(i))
        ]
        if not contained:
            return range(0, 0)
        return range(contained[0], contained[-1] + 1)

    def epoch_range(self, interval: TimeInterval, semantics: IntervalSemantics) -> range:
        if semantics.name == "CONTAINED":
            return self.epochs_contained(interval)
        return self.epochs_intersecting(interval)

    def __repr__(self) -> str:
        return "VariedEpochClock(%d epochs, t0=%g)" % (
            len(self.boundaries) - 1,
            self.t0,
        )
