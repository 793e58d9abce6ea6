"""Throughput gate: a million simulated requests in CI-sized wall-clock.

The ROADMAP's "Raw speed" item asks the traffic engine to sustain 10⁶+
simulated requests per run; this benchmark is the tracked proof.  It drives
the sketch-mode engine (``retain_records=False``) through a seeded Poisson
stream of ~10⁶ requests against a pinned 16-replica fleet, measures
simulated-requests-per-wall-clock-second, and — with ``REPRO_BENCH_RECORD=1``
set — writes ``BENCH_throughput.json`` at the repo root so the perf
trajectory is versioned alongside the equality gates.  Without the variable
the record is left untouched, so an ordinary test run leaves the tree clean.

Gates (all overridable via environment for unusually slow runners):

* the run completes every offered request;
* wall-clock stays within ``REPRO_THROUGHPUT_BUDGET_S`` (default 240 s —
  ~9x headroom over the reference machine, which finishes in under 30 s);
* throughput clears ``REPRO_THROUGHPUT_FLOOR_REQ_S`` (default 5000 req/s —
  half the *pre-optimisation* engine's rate on the reference machine, so
  only a genuine hot-path regression trips it, not a slow CI box).

The recorded ``speedup_vs_baseline`` compares against the pre-rework engine
measured on the same scenario and machine (10 227 req/s); the optimised
engine clocks ~3.3-3.7x that, clearing the ≥3x target this PR tracks.
"""

import json
import os
import time
from pathlib import Path

from repro.sim.costs import DEFAULT_COST_MODEL
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.autoscaler import Autoscaler, FixedReplicasPolicy
from repro.traffic.engine import TrafficConfig, TrafficEngine, _measure_service_time

#: Pre-rework engine on this scenario (reference machine) — the denominator
#: for the tracked speedup.  Re-measure only when the scenario changes.
BASELINE_REQ_PER_S = 10_227.0

RATE_RPS = 2000.0
DURATION_S = 500.0  # ~10⁶ Poisson arrivals at 2000 rps
PAYLOAD_MB = 0.25
SEED = 7


def _build_engine() -> TrafficEngine:
    return TrafficEngine(
        "roadrunner-user",
        autoscaler=Autoscaler(
            FixedReplicasPolicy(16), min_replicas=16, max_replicas=16
        ),
        config=TrafficConfig(
            nodes=4,
            per_replica_concurrency=4,
            initial_replicas=16,
            retain_records=False,
            queue_timeout_s=5.0,
        ),
    )


def test_million_request_throughput():
    budget_s = float(os.environ.get("REPRO_THROUGHPUT_BUDGET_S", "240"))
    floor_req_s = float(os.environ.get("REPRO_THROUGHPUT_FLOOR_REQ_S", "5000"))

    requests = PoissonArrivals(
        rate_rps=RATE_RPS,
        duration_s=DURATION_S,
        payload_mb=PAYLOAD_MB,
        seed=SEED,
    ).generate()
    assert len(requests) >= 990_000, "scenario no longer reaches ~10⁶ requests"

    engine = _build_engine()
    # Pre-measure the (mode, payload) service time so the timed region covers
    # pure dispatch work, not the one-off calibration transfer.
    payload_bytes = requests[0].payload_bytes
    engine._service_cache[("roadrunner-user", payload_bytes)] = (
        _measure_service_time("roadrunner-user", payload_bytes, DEFAULT_COST_MODEL)
    )

    start = time.perf_counter()
    summary = engine.run(requests, pattern="poisson")
    wall_s = time.perf_counter() - start

    assert summary.offered == len(requests)
    assert summary.completed + summary.timed_out + summary.shed == summary.offered

    req_per_s = len(requests) / wall_s
    result = {
        "requests": len(requests),
        "wall_s": round(wall_s, 3),
        "req_per_s": round(req_per_s, 1),
        "baseline_req_per_s": BASELINE_REQ_PER_S,
        "speedup_vs_baseline": round(req_per_s / BASELINE_REQ_PER_S, 2),
        "floor_req_per_s": floor_req_s,
        "budget_s": budget_s,
        "scenario": {
            "rate_rps": RATE_RPS,
            "duration_s": DURATION_S,
            "payload_mb": PAYLOAD_MB,
            "seed": SEED,
            "mode": "roadrunner-user",
            "nodes": 4,
            "replicas": 16,
            "per_replica_concurrency": 4,
        },
    }
    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        out_path = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
        out_path.write_text(json.dumps(result, indent=2) + "\n")

    assert wall_s <= budget_s, (
        "10⁶-request run took %.1fs, over the %.0fs CI budget" % (wall_s, budget_s)
    )
    assert req_per_s >= floor_req_s, (
        "throughput %.0f req/s under the %.0f req/s floor" % (req_per_s, floor_req_s)
    )
