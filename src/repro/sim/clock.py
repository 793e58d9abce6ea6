"""Simulated monotonic clock.

The reproduction does not measure wall-clock time: Python overheads would
drown the effects the paper studies.  Instead, components advance a shared
:class:`SimClock` by the modelled duration of each operation.  The clock is
deliberately tiny; its value is that every latency number in the experiments
has a single, auditable source.
"""

from __future__ import annotations

import math


class ClockError(ValueError):
    """Raised when the clock is set or advanced by an invalid duration."""


class SimClock:
    """A monotonically increasing simulated clock measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not 0 <= start < math.inf:
            raise ClockError("clock must start at a finite t >= 0, got %r" % (start,))
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if not 0 <= seconds < math.inf:
            raise ClockError(
                "clock advances by a finite, non-negative duration, got %r" % (seconds,)
            )
        self._now += seconds
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance the clock to ``deadline`` if it lies in the future.

        Advancing to a time that already passed is a no-op; this mirrors how
        an event loop fast-forwards to the next scheduled event.
        """
        if deadline > self._now:
            self._now = deadline
        return self._now

    def fork(self) -> "SimClock":
        """An independent clock starting at this clock's current time.

        A worker filling a detached ledger shard takes a forked clock so
        it advances without sharing (and contending on) one timeline; the
        clocks re-synchronize when the shard merges back, via
        :meth:`sync_to`.
        """
        return SimClock(start=self._now)

    def sync_to(self, *clocks: "SimClock") -> float:
        """Advance this clock to the furthest of ``clocks`` (a merge barrier).

        Synchronization points — a network transfer landing on another node,
        per-node shards folding into the cluster ledger — advance the shared
        timeline to the maximum of the partitioned ones.  Clocks never move
        backwards, so syncing is monotonic and idempotent.
        """
        for clock in clocks:
            if clock.now > self._now:
                self._now = clock.now
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock, e.g. between benchmark iterations."""
        if not 0 <= start < math.inf:
            raise ClockError("clock must be reset to a finite t >= 0, got %r" % (start,))
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimClock(now=%.9f)" % self._now
