"""Host-speed probe: a fixed ruler loop timed every few milliseconds.

Host speed on a shared machine drifts by up to 2x over tens of seconds,
and that drift moves every host-time figure of the simulator with it.
:class:`SpeedProbe` interrupts the running workload every
:data:`INTERVAL_S` seconds (``SIGALRM``) and times a fixed pure-Python
loop — the benchmark's own code, shaped like the simulator's hot loop: a
heap of timed events, dict counters, small tuples.  Because the ruler runs
on the same core, in the same process and interleaved with the workload,
it is slowed by whatever slows the workload at that moment.

A phase's figure is its host seconds minus the ruler's own seconds inside
it, rescaled to a host that runs the ruler in :data:`RULER_NOMINAL_S`
(:meth:`SpeedProbe.normalize`).  The ruler shares no state with the
simulator, so it cannot change a simulated result (the summary digests,
compared across probed and traced repeats, check this).
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import List

#: Seconds between ruler readings.
INTERVAL_S = 0.02
#: Ruler seconds on the host the benchmark was tuned on when it was quiet
#: (2-core x86-64 VM, Python 3.11); normalized figures read as seconds there.
RULER_NOMINAL_S = 0.0010

_EVENTS = 1500


def ruler_once() -> float:
    """Host seconds for one pass of the fixed ruler loop."""
    rng = random.Random(12345)
    heap: List[tuple] = []
    counters: dict = {}
    now = 0.0
    start = time.perf_counter()
    for index in range(_EVENTS):
        heapq.heappush(heap, (now + rng.random(), index, index & 15))
        if len(heap) > 64:
            when, _, key = heapq.heappop(heap)
            counters[key] = counters.get(key, 0) + 1
            now = when
    return time.perf_counter() - start


class SpeedProbe:
    """Times the ruler on a timer signal while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Ruler seconds so far; read it at phase boundaries.
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        elapsed = ruler_once()
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # Shorter than one interval: read the ruler once, after the fact.
            self.samples.append(ruler_once())

    def normalize(self, host_s: float) -> float:
        """``host_s`` (ruler time already removed) on the nominal host."""
        return host_s * RULER_NOMINAL_S / statistics.median(self.samples)
