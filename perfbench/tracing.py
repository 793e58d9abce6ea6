"""Per-layer host-time tracing, installed from outside the program.

:class:`Tracer` replaces public functions of the simulator's layers with
timing wrappers (class attributes and module-level names, so every call the
engine makes through them is seen), keeps the spans in memory, and restores
every original on :meth:`Tracer.restore`.  Nothing under ``src/`` knows it
is being traced.

Each wrapped call is a span: name, start, end, and the span that was open
when it began (its cause).  A layer's *self* time is its spans' durations
minus the part their traced children cover, so nested layers are never
double counted: a service-time calibration inside a dispatch inside the
event loop counts once, as data path.  ``runtime`` is the event loop's
``run()`` itself, so its self time is everything inside ``run()`` that no
traced layer covers — the loop and the cluster runtime's closures, which
cannot be separated from outside.

Aggregates are kept for every span; the raw spans are kept up to
``max_spans`` and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.gateway.middleware import MiddlewarePipeline
from repro.obs.streaming import StreamingTrafficStats
from repro.obs.telemetry import Telemetry
from repro.platform.gateway import FairQueue, IngressGateway
from repro.platform.invoker import Invoker
from repro.sim.engine import PartitionedEventLoop
from repro.traffic import cluster_runtime, federation
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.autoscaler import Autoscaler
from repro.traffic.cluster_runtime import ClusterRuntime
from repro.traffic.federation import GlobalRouter
from repro.traffic.memory import NodeMemoryModel

_MISSING = object()


@dataclass
class LayerTotals:
    """Aggregate of every span one layer recorded."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Span:
    span_id: int
    parent_id: int
    name: str
    start: float
    end: float


@dataclass
class Tracer:
    """Wraps layer boundaries with spans; one instance per traced run."""

    max_spans: int = 20_000
    layers: Dict[str, LayerTotals] = field(default_factory=dict)
    #: Calls per wrapped function, keyed ``Owner.attr``.
    calls: Dict[str, int] = field(default_factory=dict)
    #: Plain counters: calls of count-only wrappers and after-hook figures.
    counts: Dict[str, float] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    _stack: List[List[float]] = field(default_factory=list)
    #: (owner, attribute, the owner's own value before patching or _MISSING).
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    _next_id: int = 1

    # -- wrappers --------------------------------------------------------------------

    def _timed(
        self,
        name: str,
        layer: str,
        original: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        totals = self.layers.setdefault(layer, LayerTotals())
        calls = self.calls
        calls.setdefault(name, 0)
        stack = self._stack
        spans = self.spans
        limit = self.max_spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            # A frame is [span id, seconds covered by traced children].
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals.calls += 1
                calls[name] += 1
                totals.total_s += duration
                totals.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < limit:
                    spans.append(
                        Span(span_id, parent[0] if parent else 0, name, start, end)
                    )
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _counted(self, key: str, original: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def wrap_timed(self, owner: Any, attr: str, layer: str, after=None) -> None:
        name = "%s.%s" % (owner.__name__.rpartition(".")[2], attr)
        self._patch(owner, attr, lambda original: self._timed(name, layer, original, after))

    def wrap_counted(self, owner: Any, attr: str, key: str) -> None:
        self._patch(owner, attr, lambda original: self._counted(key, original))

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- lifecycle -------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark measures."""
        self.wrap_timed(
            ArrivalProcess, "generate", "arrivals",
            after=lambda args, result: self.bump("arrivals.requests", len(result)),
        )
        self.wrap_timed(
            PartitionedEventLoop, "run", "runtime",
            after=lambda args, result: self.bump("loop.executed", args[0].executed_events),
        )
        self.wrap_counted(PartitionedEventLoop, "schedule_at", "loop.scheduled")
        self.wrap_timed(
            FairQueue, "enqueue", "queue",
            after=lambda args, result: self.peak("queue.max_depth", args[0].total_depth()),
        )
        for attr in ("pop", "peek", "dispatch_order"):
            self.wrap_timed(FairQueue, attr, "queue")
        self.wrap_timed(
            IngressGateway, "select_replica", "gateway",
            after=lambda args, result: self.bump("gateway.candidates", len(args[2])),
        )
        self.wrap_timed(IngressGateway, "release_state", "gateway")
        self.wrap_timed(Autoscaler, "evaluate", "autoscaler")
        self.wrap_timed(NodeMemoryModel, "inflation", "memory")
        self.wrap_timed(StreamingTrafficStats, "observe", "accounting")
        self.wrap_timed(StreamingTrafficStats, "summary", "summarize")
        self.wrap_timed(cluster_runtime, "summarize", "summarize")
        self.wrap_timed(federation, "summarize", "summarize")
        self.wrap_timed(ClusterRuntime, "snapshot", "snapshot")
        self.wrap_timed(Telemetry, "on_request", "telemetry")
        for attr in ("admit", "plan_dispatch", "complete"):
            self.wrap_timed(MiddlewarePipeline, attr, "middleware")
        for attr in ("place", "reroute"):
            self.wrap_timed(GlobalRouter, attr, "router")
        self.wrap_timed(
            cluster_runtime, "build_pair_setup", "datapath",
            after=lambda args, result: self.bump("datapath.calibrations"),
        )
        self.wrap_timed(Invoker, "invoke", "datapath")
        return self

    def restore(self) -> None:
        """Put every patched attribute back exactly as it was found."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output ----------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                        }
                    )
                )
                handle.write("\n")
