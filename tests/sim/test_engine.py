"""Unit tests for the event loop, the parallel map and the makespan helper."""

import math

import pytest

from repro.sim.engine import (
    EngineError,
    EventLoop,
    ParallelTracks,
    PartitionedEventLoop,
    parallel_map,
)


def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule(2.0, lambda: order.append("late"))
    loop.schedule(1.0, lambda: order.append("early"))
    loop.run()
    assert order == ["early", "late"]
    assert loop.now == pytest.approx(2.0)
    assert loop.executed_events == 2


def test_ties_break_by_insertion_order():
    loop = EventLoop()
    order = []
    loop.schedule(1.0, lambda: order.append("first"))
    loop.schedule(1.0, lambda: order.append("second"))
    loop.run()
    assert order == ["first", "second"]


def test_schedule_rejects_past_events():
    loop = EventLoop()
    with pytest.raises(EngineError):
        loop.schedule(-1.0, lambda: None)
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(EngineError):
        loop.schedule_at(0.5, lambda: None)


def test_schedule_at_rejects_nan_times():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    # NaN compares false against everything, so it would slip past a plain
    # ``time < now`` check and silently corrupt the heap's order.
    with pytest.raises(EngineError):
        loop.schedule_at(math.nan, lambda: None)
    with pytest.raises(EngineError):
        loop.schedule(math.nan, lambda: None)
    assert loop.pending() == 1
    loop.run()
    assert loop.now == pytest.approx(1.0)


def test_partitioned_loop_still_rejects_past_events():
    loop = PartitionedEventLoop()
    loop.schedule_at(1.0, lambda: None)
    loop.run()
    with pytest.raises(EngineError):
        loop.schedule_at(0.5, lambda: None)


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(5.0, lambda: fired.append(5))
    loop.run(until=2.0)
    assert fired == [1]
    assert loop.now == pytest.approx(2.0)
    assert loop.pending() == 1


def test_events_can_schedule_further_events():
    loop = EventLoop()
    seen = []

    def first():
        seen.append("first")
        loop.schedule(1.0, lambda: seen.append("second"))

    loop.schedule(1.0, first)
    loop.run()
    assert seen == ["first", "second"]
    assert loop.now == pytest.approx(2.0)


def test_step_executes_exactly_one_event():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append("a"))
    loop.schedule(2.0, lambda: fired.append("b"))
    event = loop.step()
    assert event is not None and fired == ["a"]
    assert loop.step() is not None and fired == ["a", "b"]
    assert loop.step() is None


def test_parallel_tracks_single_worker_sums_cpu():
    tracks = ParallelTracks(workers=1)
    tracks.add(1.0, 0.0)
    tracks.add(2.0, 0.0)
    assert tracks.makespan() == pytest.approx(3.0)


def test_parallel_tracks_many_workers_overlap_cpu():
    tracks = ParallelTracks(workers=4)
    for _ in range(4):
        tracks.add(1.0, 0.0)
    assert tracks.makespan() == pytest.approx(1.0)


def test_wait_time_overlaps_across_tracks():
    tracks = ParallelTracks(workers=2)
    tracks.add(0.1, 5.0)
    tracks.add(0.1, 5.0)
    # Both waits overlap; the makespan is one CPU slice plus one wait.
    assert tracks.makespan() == pytest.approx(5.1)


def test_mean_completion_below_makespan_for_queued_work():
    tracks = ParallelTracks(workers=1)
    for _ in range(10):
        tracks.add(1.0)
    assert tracks.makespan() == pytest.approx(10.0)
    assert tracks.mean_completion() == pytest.approx(5.5)


def test_empty_tracks_have_zero_makespan():
    tracks = ParallelTracks(workers=2)
    assert tracks.makespan() == 0.0
    assert tracks.mean_completion() == 0.0


def test_totals_and_validation():
    tracks = ParallelTracks(workers=2)
    tracks.extend([(1.0, 0.5), (2.0, 0.25)])
    assert tracks.total_cpu_seconds() == pytest.approx(3.0)
    assert tracks.total_wait_seconds() == pytest.approx(0.75)
    with pytest.raises(EngineError):
        tracks.add(-1.0)
    with pytest.raises(EngineError):
        ParallelTracks(workers=0)


def _square(value):
    return value * value


def test_parallel_map_preserves_input_order():
    items = [(n,) for n in range(12)]
    assert parallel_map(_square, items) == [n * n for n in range(12)]


def test_parallel_map_single_item_runs_inline():
    assert parallel_map(_square, [(7,)], max_workers=1) == [49]
