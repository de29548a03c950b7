"""Epoch clocks and time intervals."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.temporal.epochs import EpochClock, TimeInterval, VariedEpochClock
from repro.temporal.tia import IntervalSemantics


class TestTimeInterval:
    def test_basic(self):
        interval = TimeInterval(2, 9)
        assert (interval.start, interval.end) == (2.0, 9.0)

    def test_point_interval_allowed(self):
        point = TimeInterval(3, 3)
        assert point.start == point.end == 3.0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(5, 4)

    def test_intersects_epoch(self):
        interval = TimeInterval(5, 10)
        assert interval.intersects(4, 6)
        assert interval.intersects(9, 12)
        assert not interval.intersects(10.5, 11)  # starts after the end
        assert not interval.intersects(3, 5)  # epoch [3,5) is open at 5

    def test_contains_epoch(self):
        interval = TimeInterval(5, 10)
        assert interval.contains(5, 10)
        assert interval.contains(6, 8)
        assert not interval.contains(4, 8)
        assert not interval.contains(8, 11)

    def test_equality_and_hash(self):
        assert TimeInterval(1, 2) == TimeInterval(1, 2)
        assert hash(TimeInterval(1, 2)) == hash(TimeInterval(1, 2))
        assert TimeInterval(1, 2) != TimeInterval(1, 3)


class TestEpochClock:
    def test_epoch_of(self):
        clock = EpochClock(0.0, 7.0)
        assert clock.epoch_of(0.0) == 0
        assert clock.epoch_of(6.999) == 0
        assert clock.epoch_of(7.0) == 1
        assert clock.epoch_of(70.0) == 10

    def test_nonzero_t0(self):
        clock = EpochClock(100.0, 2.0)
        assert clock.epoch_of(100.0) == 0
        assert clock.epoch_of(103.9) == 1

    def test_time_before_t0_rejected(self):
        clock = EpochClock(10.0, 1.0)
        with pytest.raises(ValueError):
            clock.epoch_of(9.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            EpochClock(0.0, 0.0)

    def test_bounds(self):
        clock = EpochClock(0.0, 7.0)
        assert clock.bounds(0) == (0.0, 7.0)
        assert clock.bounds(3) == (21.0, 28.0)
        with pytest.raises(ValueError):
            clock.bounds(-1)

    def test_num_epochs(self):
        clock = EpochClock(0.0, 7.0)
        assert clock.num_epochs(0.0) == 0
        assert clock.num_epochs(7.0) == 1
        assert clock.num_epochs(7.1) == 2
        assert clock.num_epochs(21.0) == 3

    def test_epochs_intersecting(self):
        clock = EpochClock(0.0, 7.0)
        assert list(clock.epochs_intersecting(TimeInterval(0, 6))) == [0]
        assert list(clock.epochs_intersecting(TimeInterval(0, 7))) == [0, 1]
        assert list(clock.epochs_intersecting(TimeInterval(8, 20))) == [1, 2]
        assert list(clock.epochs_intersecting(TimeInterval(7, 7))) == [1]

    def test_epochs_contained(self):
        clock = EpochClock(0.0, 7.0)
        assert list(clock.epochs_contained(TimeInterval(0, 14))) == [0, 1]
        assert list(clock.epochs_contained(TimeInterval(1, 14))) == [1]
        assert list(clock.epochs_contained(TimeInterval(1, 13))) == []
        assert list(clock.epochs_contained(TimeInterval(0, 6))) == []

    def test_contained_subset_of_intersecting(self):
        clock = EpochClock(0.0, 3.0)
        interval = TimeInterval(2.5, 17.0)
        contained = set(clock.epochs_contained(interval))
        intersecting = set(clock.epochs_intersecting(interval))
        assert contained <= intersecting

    def test_epoch_range_dispatch(self):
        clock = EpochClock(0.0, 7.0)
        interval = TimeInterval(0, 14)
        assert list(clock.epoch_range(interval, IntervalSemantics.INTERSECTS)) == [
            0,
            1,
            2,
        ]
        assert list(clock.epoch_range(interval, IntervalSemantics.CONTAINED)) == [0, 1]


class TestVariedEpochClock:
    def test_exponential_schedule(self):
        clock = VariedEpochClock.exponential(0.0, 1.0, count=4, factor=2.0)
        # Epochs: [0,1), [1,3), [3,7), [7,15), then the open tail [15, inf).
        assert clock.bounds(0) == (0.0, 1.0)
        assert clock.bounds(1) == (1.0, 3.0)
        assert clock.bounds(3) == (7.0, 15.0)
        assert clock.bounds(4) == (15.0, math.inf)

    def test_epoch_of(self):
        clock = VariedEpochClock([0.0, 1.0, 3.0, 7.0])
        assert clock.epoch_of(0.5) == 0
        assert clock.epoch_of(1.0) == 1
        assert clock.epoch_of(2.9) == 1
        assert clock.epoch_of(100.0) == 3  # the open tail

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            VariedEpochClock([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            VariedEpochClock([0.0])

    def test_epochs_intersecting(self):
        clock = VariedEpochClock([0.0, 1.0, 3.0, 7.0])
        assert list(clock.epochs_intersecting(TimeInterval(0.5, 3.5))) == [0, 1, 2]

    def test_epochs_contained_excludes_open_tail(self):
        clock = VariedEpochClock([0.0, 1.0, 3.0])
        contained = list(clock.epochs_contained(TimeInterval(0.0, 100.0)))
        assert contained == [0, 1]

    def test_num_epochs(self):
        clock = VariedEpochClock([0.0, 1.0, 3.0])
        assert clock.num_epochs(0.0) == 0
        assert clock.num_epochs(0.5) == 1
        assert clock.num_epochs(2.0) == 2


@given(
    st.floats(0, 1000, allow_nan=False),
    st.floats(0.1, 50, allow_nan=False),
    st.floats(0, 2000, allow_nan=False),
)
def test_property_epoch_of_respects_bounds(t0, length, offset):
    clock = EpochClock(t0, length)
    t = t0 + offset
    index = clock.epoch_of(t)
    ts, te = clock.bounds(index)
    assert ts <= t + 1e-6
    assert t < te + 1e-6


@given(st.floats(0.5, 30, allow_nan=False), st.integers(0, 50), st.integers(0, 50))
def test_property_intersecting_covers_interval(length, a, b):
    clock = EpochClock(0.0, length)
    start, end = sorted((float(a), float(b)))
    interval = TimeInterval(start, end)
    epochs = list(clock.epochs_intersecting(interval))
    assert epochs, "every interval intersects at least one epoch"
    # The epochs' union must cover the interval.
    assert clock.bounds(epochs[0])[0] <= start + 1e-9
    assert clock.bounds(epochs[-1])[1] >= end - 1e-9
