"""One repeat of one workload, timed phase by phase, in its own process.

``python3 -m perfbench.repeat --workload NAME --seed N --trace 0|1
[--scale X] [--spans PATH]`` runs the workload once and prints one JSON
object: the host seconds of each phase (setup, ``run()``, report), raw and
normalized by the host-speed probe (:mod:`perfbench.probe`), the
process's peak RSS, the modelled figures,
the summary digest, every failed check, and — when traced — the per-layer
figures.  :mod:`perfbench.run` starts one such process per repeat, so each
repeat's peak RSS is its own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
from typing import Dict, Optional

from perfbench.probe import SpeedProbe
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Facts, summary_digest


def host_stamp() -> Dict[str, object]:
    """Interpreter, cores, numpy and whether arrivals took the vector path."""
    from repro.traffic import arrivals

    numpy = arrivals._np
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "vector_arrivals": numpy is not None,
        "vector_log": arrivals._log_transform_exact(),
        "vector_cos": arrivals._cos_transform_exact(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, facts: Facts, export_s: float) -> Dict[str, float]:
    """The per-layer figures of one traced repeat, host times in raw seconds."""
    layers = tracer.layers
    calls = tracer.calls
    counts = tracer.counts

    def self_s(layer: str) -> float:
        return layers[layer].self_s

    def total_s(layer: str) -> float:
        return layers[layer].total_s

    selects = calls["IngressGateway.select_replica"]
    passes = calls["FairQueue.dispatch_order"]
    calibrations = int(counts.get("datapath.calibrations", 0))
    return {
        "arrivals.generate_s": total_s("arrivals"),
        "arrivals.requests": counts.get("arrivals.requests", 0),
        "loop.scheduled": counts["loop.scheduled"],
        "loop.us_per_event": _ratio(total_s("runtime") * 1e6, counts["loop.executed"]),
        "runtime.self_s": self_s("runtime"),
        "queue.enqueue_calls": calls["FairQueue.enqueue"],
        "queue.pop_calls": calls["FairQueue.pop"],
        "queue.dispatch_order_calls": passes,
        "queue.self_s": self_s("queue"),
        "queue.max_depth": counts.get("queue.max_depth", 0),
        "queue.wait_p99_ms": facts.wait_p99_ms,
        "gateway.select_calls": selects,
        "gateway.candidates_per_select": _ratio(counts.get("gateway.candidates", 0), selects),
        "gateway.self_s": self_s("gateway"),
        "runtime.dispatch_yield": _ratio(selects, passes),
        "autoscaler.evaluate_calls": calls["Autoscaler.evaluate"],
        "autoscaler.self_s": self_s("autoscaler"),
        "autoscaler.cold_starts": facts.cold_starts,
        "autoscaler.cold_start_s": facts.cold_start_s,
        "autoscaler.max_replicas": facts.max_replicas,
        "memory.inflation_calls": calls["NodeMemoryModel.inflation"],
        "memory.self_s": self_s("memory"),
        "memory.evictions": facts.evictions,
        "accounting.observe_calls": calls["StreamingTrafficStats.observe"],
        "accounting.self_s": self_s("accounting"),
        "accounting.summarize_s": total_s("summarize"),
        "accounting.snapshot_s": total_s("snapshot"),
        "telemetry.on_request_calls": calls["Telemetry.on_request"],
        "telemetry.self_s": self_s("telemetry"),
        "telemetry.events_written": facts.events_written,
        "telemetry.bytes_written": facts.bytes_written,
        "telemetry.export_s": export_s,
        "middleware.admit_calls": calls["MiddlewarePipeline.admit"],
        "middleware.self_s": self_s("middleware"),
        "middleware.cache_hit_ratio": facts.cache_hit_ratio,
        "middleware.coalesced": facts.coalesced,
        "middleware.hedges": facts.hedges,
        "router.place_calls": calls["GlobalRouter.place"],
        "router.self_s": self_s("router"),
        "router.spillovers": facts.spillovers,
        "router.failovers": facts.failovers,
        "router.remote_ratio": facts.remote_ratio,
        "router.wan_mb": facts.wan_mb,
        "datapath.calibrations": calibrations,
        "datapath.self_s": self_s("datapath"),
        "datapath.ms_per_calibration": _ratio(self_s("datapath") * 1000.0, calibrations),
    }


def run_repeat(
    name: str,
    seed: int,
    trace: bool,
    scale: float = 1.0,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run one workload once; return everything the parent aggregates.

    Untraced repeats run under the host-speed probe; their phase seconds
    exclude the probe's own time, and ``norm`` holds them rescaled to the
    nominal host.  Traced repeats run without it (their spans would
    otherwise absorb the probe's time).
    """
    tracer = Tracer().install() if trace else None
    probe = SpeedProbe() if not trace else None
    gc.collect()
    marks = []

    def mark() -> None:
        marks.append((time.perf_counter(), probe.spent_s if probe else 0.0))

    try:
        with probe if probe is not None else contextlib.nullcontext():
            mark()
            workload = WORKLOADS[name](seed, scale)
            workload.setup()
            mark()
            summary = workload.execute()
            mark()
            workload.report(summary)
            mark()
    finally:
        if tracer is not None:
            tracer.restore()

    def phase(first: int, last: int) -> float:
        return (marks[last][0] - marks[first][0]) - (marks[last][1] - marks[first][1])

    host = {
        "setup_s": phase(0, 1),
        "run_s": phase(1, 2),
        "report_s": phase(2, 3),
        "wall_s": phase(0, 3),
    }
    facts = workload.facts(summary)
    problems = workload.problems(summary, facts)
    if scale == 1.0:
        problems += workload.shape_problems(summary, facts)
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "host": host,
        "norm": {key: probe.normalize(value) for key, value in host.items()} if probe else None,
        "probe_samples": len(probe.samples) if probe else 0,
        "probe_s": probe.spent_s if probe else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "modelled": workload.modelled(summary),
        "facts": asdict(facts),
        "digest": summary_digest(summary),
        "problems": problems,
        "stamp": host_stamp(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, facts, workload.export_s)
        result["spans_recorded"] = len(tracer.spans)
        if spans_path:
            tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run_repeat(args.workload, args.seed, bool(args.trace), args.scale, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
