"""The repository benchmark: one workload, repeated for a fixed host time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload steady|contended|federated \\
        --seed N --seconds S --trace 0|1

Each repeat runs in a fresh process (:mod:`perfbench.repeat`), one after
another, until ``--seconds`` of host time have passed (at least
:data:`MIN_REPEATS`, or :data:`MIN_TRACED_PAIRS` pairs when tracing).  With ``--trace 1`` untraced and traced repeats
alternate: the traced ones give the per-layer figures, the untraced ones
the tracing overhead.

End-to-end metrics (``--trace 0``):

* ``sim_req_per_s`` — offered simulated requests per host second inside
  the engine's ``run()`` (the headline);
* ``setup_s`` — host seconds before ``run()``: arrival generation, request
  shaping and engine construction;
* ``wall_s`` — host seconds for the whole workload, report and exports
  included;
* ``peak_rss_mb`` — peak resident memory of the repeat's process;
* ``model_p50_ms`` / ``model_p99_ms`` — modelled latency of served
  requests (the sample count is printed beside them);
* ``served_frac`` — simulated requests served over offered.  Its
  complement, ``failed_frac`` (timed out, dropped, shed, rate-limited or
  rejected), is printed too; it is 0 on ``steady`` by design, and a
  metric that can be 0 cannot carry a relative bound.

Host figures are medians over the untraced repeats, each repeat's phase
seconds normalized by the host-speed probe (:mod:`perfbench.probe`): a
fixed ruler loop timed every 20 ms inside the repeat, whose own time is
taken out, rescales the phase to a host that runs the ruler in its nominal
time.  Host speed on a shared machine drifts by up to 2x over tens of
seconds; on the 2-core VM the benchmark was tuned on, the probe cut the
seed-to-seed spread of ``sim_req_per_s`` on ``federated`` from 8.5% to
4.2% in the same ten runs.  The raw seconds are printed and recorded
beside the normalized ones.  Traced repeats run without the probe, so
per-layer host times are raw seconds.

Modelled figures are deterministic for a seed; the traffic model itself has
no reference measurements, so it is unvalidated and no error figure is
given for it.

Checks on every run, any failure of which makes the exit code 1:

* per tenant and per region, offered equals served plus every failure
  outcome; router placements sum to offered;
* the digest of the simulated summary is identical across every repeat,
  traced and untraced;
* the workload-shape guards of :mod:`perfbench.workloads`;
* ``evaluate_claims()`` reports all of the paper's headline claims
  satisfied, since every service time comes from that data path.

One ``attempted`` operation is one repeat of the workload; a repeat fails
when any of its checks fails.  The last line of stdout is the JSON result;
everything each repeat reported is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("steady", "contended", "federated")
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 2
#: A repeat that takes longer than this has hung; the run fails.
REPEAT_TIMEOUT_S = 150.0

#: End-to-end metrics and their units (BENCHMARK.json lists the bounds).
END_TO_END = {
    "sim_req_per_s": "1/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "model_p50_ms": "ms",
    "model_p99_ms": "ms",
    "served_frac": "ratio",
}

#: Per-layer metrics of the traced run and their units.
PER_LAYER = {
    "arrivals.generate_s": "s",
    "arrivals.requests": "count",
    "loop.scheduled": "count",
    "loop.us_per_event": "us",
    "runtime.self_s": "s",
    "runtime.dispatch_yield": "ratio",
    "queue.enqueue_calls": "count",
    "queue.pop_calls": "count",
    "queue.dispatch_order_calls": "count",
    "queue.self_s": "s",
    "queue.max_depth": "count",
    "queue.wait_p99_ms": "ms",
    "gateway.select_calls": "count",
    "gateway.candidates_per_select": "count",
    "gateway.self_s": "s",
    "autoscaler.evaluate_calls": "count",
    "autoscaler.self_s": "s",
    "autoscaler.cold_starts": "count",
    "autoscaler.cold_start_s": "s",
    "autoscaler.max_replicas": "count",
    "memory.inflation_calls": "count",
    "memory.self_s": "s",
    "memory.evictions": "count",
    "accounting.observe_calls": "count",
    "accounting.self_s": "s",
    "accounting.summarize_s": "s",
    "accounting.snapshot_s": "s",
    "telemetry.on_request_calls": "count",
    "telemetry.self_s": "s",
    "telemetry.events_written": "count",
    "telemetry.bytes_written": "bytes",
    "telemetry.export_s": "s",
    "middleware.admit_calls": "count",
    "middleware.self_s": "s",
    "middleware.cache_hit_ratio": "ratio",
    "middleware.coalesced": "count",
    "middleware.hedges": "count",
    "router.place_calls": "count",
    "router.self_s": "s",
    "router.spillovers": "count",
    "router.failovers": "count",
    "router.remote_ratio": "ratio",
    "router.wan_mb": "MB",
    "datapath.calibrations": "count",
    "datapath.self_s": "s",
    "datapath.ms_per_calibration": "ms",
    "trace.overhead_s": "s",
}


def _repeat(workload: str, seed: int, trace: bool, scale: float, index: int) -> Dict:
    """Run one repeat in a fresh process and return its JSON report."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d-%d.jsonl" % (workload, seed, index)) if trace else None
    command = [
        sys.executable, "-m", "perfbench.repeat",
        "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0",
        "--scale", repr(scale),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        command, cwd=str(ROOT), env=env, capture_output=True, text=True,
        timeout=REPEAT_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            "repeat %d of %s exited %d:\n%s"
            % (index, workload, completed.returncode, completed.stderr[-4000:])
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_repeats(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> List[Dict]:
    """Repeat until ``seconds`` of host time have passed.

    Traced runs repeat in (untraced, traced) pairs, so the overhead compares
    repeats made at nearly the same time.
    """
    started = time.perf_counter()
    batch = (False, True) if trace else (False,)
    minimum = MIN_TRACED_PAIRS * 2 if trace else MIN_REPEATS
    reports: List[Dict] = []
    while len(reports) < minimum or time.perf_counter() - started < seconds:
        for traced in batch:
            reports.append(_repeat(workload, seed, traced, scale, len(reports)))
    return reports


def _checks(reports: List[Dict]) -> List[str]:
    problems: List[str] = []
    for index, report in enumerate(reports):
        problems += ["repeat %d: %s" % (index, text) for text in report["problems"]]
    digests = {report["digest"] for report in reports}
    if len(digests) != 1:
        problems.append("summary digests differ across repeats: %s" % sorted(digests))
    return problems


def _claims_problems() -> List[str]:
    from repro.experiments.claims import evaluate_claims

    checks = evaluate_claims()
    failed = [check.claim_id for check in checks if not check.satisfied]
    if len(checks) != 13:
        return ["expected 13 headline claims, evaluate_claims() gave %d" % len(checks)]
    return ["headline claim not satisfied: %s" % claim for claim in failed]


def end_to_end(untraced: List[Dict]) -> Dict[str, float]:
    modelled = untraced[0]["modelled"]

    def host(key: str) -> float:
        return statistics.median([r["norm"][key] for r in untraced])

    return {
        "sim_req_per_s": modelled["offered"] / host("run_s"),
        "setup_s": host("setup_s"),
        "wall_s": host("wall_s"),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
        "model_p50_ms": modelled["model_p50_ms"],
        "model_p99_ms": modelled["model_p99_ms"],
        "served_frac": modelled["served_frac"],
    }


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    layers = {
        key: statistics.median([r["layers"][key] for r in traced]) for key in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = statistics.median(
        [r["host"]["wall_s"] for r in traced]
    ) - statistics.median([r["host"]["wall_s"] for r in untraced])
    return layers


def _print_table(
    workload: str, reports: List[Dict], metrics: Dict[str, float], units: Dict[str, str]
) -> None:
    first = reports[0]
    stamp = first["stamp"]
    modelled = first["modelled"]
    print("workload %s, seed %d, %d repeats" % (workload, first["seed"], len(reports)))
    print(
        "host: python %s, nproc %s, numpy %s, vectorized arrivals %s (log %s, cos %s)"
        % (stamp["python"], stamp["nproc"], stamp["numpy"], stamp["vector_arrivals"],
           stamp["vector_log"], stamp["vector_cos"])
    )
    for index, report in enumerate(reports):
        host = report["host"]
        print(
            "  repeat %d%s: setup %.3fs run %.3fs report %.3fs wall %.3fs "
            "(raw host seconds, probe excluded) rss %.1fMB%s"
            % (index, " traced" if report["trace"] else "", host["setup_s"], host["run_s"],
               host["report_s"], host["wall_s"], report["peak_rss_mb"],
               "; normalized run %.3fs" % report["norm"]["run_s"] if report["norm"] else "")
        )
    print(
        "  modelled: %d offered, %d latency samples, failed_frac %.6f ratio"
        % (modelled["offered"], modelled["latency_samples"], modelled["failed_frac"])
    )
    for name, value in metrics.items():
        print("  %-32s %.6g %s" % (name, value, units[name]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="simulated-duration multiplier (1.0 is the benchmark; smaller for smoke tests)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("perfbench: no simulator source at %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.scale <= 0:
        print("perfbench: --seconds and --scale must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]

    trace = bool(args.trace)
    try:
        reports = run_repeats(args.workload, args.seed, args.seconds, trace, args.scale)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    problems = _checks(reports) + _claims_problems()
    untraced = [r for r in reports if not r["trace"]]
    if trace:
        metrics = per_layer([r for r in reports if r["trace"]], untraced)
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END

    OUT.mkdir(exist_ok=True)
    record = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record.write_text(
        json.dumps({"reports": reports, "metrics": metrics, "problems": problems}, indent=1)
    )
    _print_table(args.workload, reports, metrics, units)
    for text in problems:
        print("CHECK FAILED: %s" % text)
    failed = sum(1 for r in reports if r["problems"])
    if problems and not failed:
        failed = len(reports)
    result = {
        "correct": not problems,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
