"""Benchmark: whole-run parallelism across worker processes.

Not a paper figure — the scale-out regression gate for comparisons.  Each
simulation runs its events serially; what parallelizes is a comparison of
independent runs (``run_comparison`` over several runtimes, the
``--parallel-nodes`` CLI path), where every mode's whole cluster
simulation — its own cluster, per-node ledger shards and clock — runs in
its own worker process.  The assertions pin two properties:

* **Determinism across execution strategies.**  The process-parallel
  comparison's summaries are value-identical to the serial comparison
  under the same seeds.

* **No wall-clock regression.**  On multi-core hosts the process-parallel
  comparison runs concurrently and comes in at or below the serial time
  plus a fixed pool overhead; single-core CI, where the pool deliberately
  degrades to the serial path, keeps a noise band.
"""

import os
import time

from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import run_comparison

DURATION_S = 20.0

#: Parallel may not exceed serial by more than this factor.  On a
#: single-core host both paths execute the same serial code, so this is a
#: pure noise band; on multi-core hosts parallel should land at or below 1.
NO_REGRESSION_FACTOR = 1.25


def test_process_parallel_mode_comparison_matches_serial():
    requests = PoissonArrivals(
        rate_rps=120.0, duration_s=DURATION_S, payload_mb=1.0, seed=11
    ).generate()
    modes = ("roadrunner-user", "runc-http")

    start = time.perf_counter()
    serial = run_comparison(requests, modes=modes)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_comparison(requests, modes=modes, parallel=True)
    parallel_wall = time.perf_counter() - start

    assert parallel == serial
    limit = NO_REGRESSION_FACTOR if (os.cpu_count() or 1) < 2 else 1.0
    assert parallel_wall <= serial_wall * limit + 0.5, (
        "parallel comparison regressed wall-clock: %.3fs vs serial %.3fs"
        % (parallel_wall, serial_wall)
    )
