"""Sliding-window derivation: the interval/epoch-range agreement."""

import pytest

from repro import EpochClock, IntervalSemantics, VariedEpochClock
from repro.continuous import WindowState, window_state


@pytest.fixture
def clock():
    return EpochClock(0.0, 7.0)


class TestWindowState:
    def test_trailing_window_selects_the_last_epochs(self, clock):
        # current_time 70 => epochs 0..9 have begun, latest is 9.
        window = window_state(clock, 70.0, 3)
        assert window.latest_epoch == 9
        assert window.first_epoch == 7
        assert list(window.epochs) == [7, 8, 9]

    def test_epochs_come_from_epoch_range_not_arithmetic(self, clock):
        # The invariant subscription identity rests on: the window's
        # epoch range IS clock.epoch_range(interval, semantics), so a
        # fresh tree.query() over the same interval sees the same epochs.
        for semantics in IntervalSemantics:
            window = window_state(clock, 100.0, 4, semantics)
            assert window.epochs == clock.epoch_range(
                window.interval, semantics
            )

    def test_clamped_at_epoch_zero(self, clock):
        window = window_state(clock, 7.5, 10)
        assert window.first_epoch == 0
        assert window.latest_epoch == 1

    def test_before_the_clock_starts_pins_epoch_zero(self, clock):
        window = window_state(clock, 0.0, 2)
        assert window.first_epoch == 0
        assert window.latest_epoch == 0

    def test_intersects_endpoint_stays_inside_the_last_epoch(self, clock):
        # An end at te would also intersect the NEXT epoch; the midpoint
        # keeps the selection to exactly the trailing window.
        window = window_state(clock, 70.0, 2, IntervalSemantics.INTERSECTS)
        ts, te = clock.bounds(window.latest_epoch)
        assert ts < window.interval.end < te

    def test_contained_endpoint_is_the_last_epoch_te(self, clock):
        window = window_state(clock, 70.0, 2, IntervalSemantics.CONTAINED)
        assert window.interval.end == clock.bounds(window.latest_epoch)[1]
        assert list(window.epochs) == [8, 9]

    def test_open_tail_epoch_falls_back_to_ts(self):
        varied = VariedEpochClock([0.0, 10.0, 20.0])  # epoch 2 is open
        for semantics in IntervalSemantics:
            window = window_state(varied, 25.0, 2, semantics)
            assert window.latest_epoch == 2
            assert window.interval.end == 20.0
            assert window.epochs == varied.epoch_range(
                window.interval, semantics
            )

    def test_window_epochs_must_be_positive(self, clock):
        with pytest.raises(ValueError):
            window_state(clock, 10.0, 0)
        with pytest.raises(ValueError):
            window_state(clock, 10.0, -3)

    def test_describe_is_json_ready(self, clock):
        described = window_state(clock, 70.0, 3).describe()
        assert described == {
            "interval": [49.0, described["interval"][1]],
            "epochs": [7, 10],
            "first_epoch": 7,
            "latest_epoch": 9,
        }

    def test_window_states_compare_by_value(self, clock):
        assert window_state(clock, 70.0, 3) == window_state(clock, 70.0, 3)
        assert window_state(clock, 70.0, 3) != window_state(clock, 77.0, 3)
        assert isinstance(window_state(clock, 70.0, 3), WindowState)
