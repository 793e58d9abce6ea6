"""Benchmark: telemetry is a pure observer, cheap when on, free when off.

Three gates protect the observability layer's core promises:

1. **Off means off** — an uninstrumented run (``telemetry=None``, the
   default) produces byte-identical reports and figure exports to a fully
   instrumented run of the same seeded stream: attaching every sink
   (registry, trace log, event stream, progress) cannot perturb a single
   simulated event.
2. **On is bounded** — the fully instrumented run finishes within ``3x``
   the uninstrumented wall-clock (measured 2.4-3.4x, median ~2.7x, on a
   2-core shared host: the margin is thin).  Per-request work is a few
   counter bumps, one trace record and one JSON line.
3. **Sketch mode is honest** — ``retain_records=False`` keeps no
   per-request records at all, yet its p50/p95/p99 stay within 1% of the
   exact order statistics on a 100k-request run whose latency distribution
   is deliberately nasty (a cold-start transient spike plus a no-wait atom
   plus a queueing tail).
"""

import io
import json
import time

from repro.metrics.export import figure_to_csv, traffic_to_figure
from repro.obs import JsonlEventWriter, ProgressReporter, Telemetry, TraceLog
from repro.traffic import (
    Autoscaler,
    PoissonArrivals,
    TargetConcurrencyPolicy,
    TrafficConfig,
    TrafficEngine,
)
from repro.traffic.report import render_traffic_report

#: The stated instrumentation-overhead bound (wall-clock on / wall-clock off).
OVERHEAD_BOUND = 3.0

#: Timed runs per side of the overhead measurement (the best one counts).
REPEATS = 5

#: The stated sketch-accuracy bound (relative error vs exact percentiles).
ACCURACY_BOUND = 0.01


def _autoscaler(max_replicas=16):
    return Autoscaler(
        TargetConcurrencyPolicy(1.0),
        min_replicas=1,
        max_replicas=max_replicas,
        keep_alive_s=10.0,
        control_interval_s=1.0,
    )


def _full_telemetry():
    return Telemetry(
        trace_log=TraceLog(),
        events=JsonlEventWriter(io.StringIO()),
        progress=ProgressReporter(interval_s=5.0, stream=io.StringIO()),
    )


def _run(requests, telemetry=None, config=None):
    engine = TrafficEngine(
        "roadrunner-user",
        autoscaler=_autoscaler(),
        config=config or TrafficConfig(),
        telemetry=telemetry,
    )
    summary = engine.run(requests, pattern="poisson")
    return engine, summary


def test_telemetry_off_output_is_byte_identical(benchmark):
    requests = PoissonArrivals(rate_rps=80.0, duration_s=20.0, payload_mb=1.0, seed=31).generate()

    def run_both():
        _, bare = _run(requests)
        _, instrumented = _run(requests, telemetry=_full_telemetry())
        return bare, instrumented

    bare, instrumented = benchmark.pedantic(run_both, rounds=1, iterations=1)
    # Summaries compare equal field-by-field (dataclass equality), and the
    # rendered report and figure export — the seed outputs — are the same
    # bytes, so instrumentation provably observed without perturbing.
    assert instrumented == bare
    assert render_traffic_report({"roadrunner-user": instrumented}) == render_traffic_report(
        {"roadrunner-user": bare}
    )
    assert figure_to_csv(traffic_to_figure({"roadrunner-user": instrumented})) == figure_to_csv(
        traffic_to_figure({"roadrunner-user": bare})
    )


def test_instrumentation_overhead_under_bound(benchmark):
    # ~20k requests: one uninstrumented run takes ~0.4 s on a 2-core host, long
    # enough that timer and scheduler jitter stay small beside it.
    requests = PoissonArrivals(rate_rps=100.0, duration_s=200.0, payload_mb=1.0, seed=5).generate()

    def timed(telemetry):
        started = time.perf_counter()
        _run(requests, telemetry=telemetry)
        return time.perf_counter() - started

    def measure():
        # Off and on runs alternate (off/on, then on/off, ...) so a drift
        # in host speed lands on both sides; best-of-N on each side then
        # absorbs scheduler jitter on shared runners.
        off, on = [], []
        for repeat in range(REPEATS):
            if repeat % 2 == 0:
                off.append(timed(None))
                on.append(timed(_full_telemetry()))
            else:
                on.append(timed(_full_telemetry()))
                off.append(timed(None))
        return min(off), min(on)

    off_s, on_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    factor = on_s / off_s
    assert factor < OVERHEAD_BOUND, (
        "full telemetry stack cost %.2fx the uninstrumented run (bound %.1fx)"
        % (factor, OVERHEAD_BOUND)
    )


def test_sketch_mode_percentiles_within_one_percent_at_100k(benchmark):
    # ~100k requests through an autoscaling pool: the latency distribution
    # mixes a cold-start transient, a large no-queueing atom, and a smooth
    # queueing tail — the shape that breaks naive streaming estimators.
    requests = PoissonArrivals(rate_rps=2000.0, duration_s=50.0, payload_mb=1.0, seed=17).generate()
    assert len(requests) >= 100_000

    def run_both():
        exact_engine, exact = _run(
            requests, config=TrafficConfig(nodes=8)
        )
        sketch_engine, sketch = _run(
            requests, config=TrafficConfig(nodes=8, retain_records=False)
        )
        return exact_engine, exact, sketch_engine, sketch

    exact_engine, exact, sketch_engine, sketch = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert sketch_engine.records == []  # the whole point: nothing retained
    assert len(exact_engine.records) == len(requests)
    assert sketch.completed == exact.completed
    for distribution in ("latency", "queueing", "service"):
        exact_summary = getattr(exact, distribution)
        sketch_summary = getattr(sketch, distribution)
        for stat in ("p50_s", "p95_s", "p99_s"):
            exact_value = getattr(exact_summary, stat)
            sketch_value = getattr(sketch_summary, stat)
            error = abs(sketch_value - exact_value) / max(exact_value, 1e-12)
            assert error <= ACCURACY_BOUND, (
                "%s %s: sketch %.6f vs exact %.6f (rel %.4f > %.2f)"
                % (distribution, stat, sketch_value, exact_value, error, ACCURACY_BOUND)
            )
        assert sketch_summary.count == exact_summary.count
        assert sketch_summary.max_s == exact_summary.max_s


def test_event_stream_is_deterministic_across_runs(benchmark):
    requests = PoissonArrivals(rate_rps=60.0, duration_s=10.0, payload_mb=1.0, seed=2).generate()

    def stream_once():
        buffer = io.StringIO()
        _run(requests, telemetry=Telemetry(events=JsonlEventWriter(buffer)))
        return buffer.getvalue()

    first = benchmark.pedantic(stream_once, rounds=1, iterations=1)
    second = stream_once()
    assert first == second
    assert json.loads(first.splitlines()[0])["event"] == "run_start"
