"""Unit tests for the simulated clock."""

import pytest

from repro.sim.clock import ClockError, SimClock


def test_clock_starts_at_zero_by_default():
    assert SimClock().now == 0.0


def test_clock_advances_and_returns_new_time():
    clock = SimClock()
    assert clock.advance(1.5) == pytest.approx(1.5)
    assert clock.advance(0.25) == pytest.approx(1.75)
    assert clock.now == pytest.approx(1.75)


def test_clock_rejects_negative_advance():
    with pytest.raises(ClockError):
        SimClock().advance(-0.1)


def test_clock_rejects_negative_start():
    with pytest.raises(ClockError):
        SimClock(start=-1.0)


def test_advance_to_moves_forward_only():
    clock = SimClock(start=5.0)
    assert clock.advance_to(7.0) == pytest.approx(7.0)
    # Advancing to a time already passed is a no-op, not an error.
    assert clock.advance_to(3.0) == pytest.approx(7.0)


def test_reset_restores_start_time():
    clock = SimClock()
    clock.advance(10.0)
    clock.reset()
    assert clock.now == 0.0
    clock.reset(start=2.0)
    assert clock.now == pytest.approx(2.0)


def test_reset_rejects_negative_start():
    with pytest.raises(ClockError):
        SimClock().reset(start=-2.0)


def test_zero_advance_is_allowed():
    clock = SimClock()
    clock.advance(0.0)
    assert clock.now == 0.0


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("seconds", NON_FINITE)
def test_clock_rejects_non_finite_advance(seconds):
    clock = SimClock(start=1.0)
    with pytest.raises(ClockError):
        clock.advance(seconds)
    # A rejected advance leaves the clock where it was.
    assert clock.now == 1.0


@pytest.mark.parametrize("start", NON_FINITE)
def test_clock_rejects_non_finite_start(start):
    with pytest.raises(ClockError):
        SimClock(start=start)


@pytest.mark.parametrize("start", NON_FINITE)
def test_reset_rejects_non_finite_start(start):
    clock = SimClock(start=3.0)
    with pytest.raises(ClockError):
        clock.reset(start=start)
    assert clock.now == 3.0
