"""Streaming SLO accounting: summaries without retaining per-request records.

The default engine keeps one :class:`~repro.traffic.slo.RequestRecord` per
admitted request and rolls them up at the end — exact, but O(requests)
memory.  :class:`StreamingTrafficStats` is the constant-memory replacement
behind ``TrafficConfig(retain_records=False)``: every would-be record is
folded into counters and :class:`~repro.obs.sketch.QuantileSketch` instances
(overall and per scheduling class) at completion time and then forgotten.
``summary()`` produces the same :class:`~repro.traffic.slo.TrafficSummary`
shape the exact path does, with sketch-estimated percentiles, and
``waterfall()`` produces the same per-class stage rows the waterfall table
renders — so reports, exporters and figures are agnostic to which mode fed
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.sketch import QuantileSketch
from repro.obs.spans import WaterfallRow
from repro.traffic.slo import (
    SERVED_OUTCOMES,
    ClassSummary,
    RequestOutcome,
    RequestRecord,
    TrafficSummary,
)


@dataclass
class StageSketches:
    """The four stage distributions one scope (tenant or class) tracks."""

    latency: QuantileSketch = field(default_factory=QuantileSketch)
    queueing: QuantileSketch = field(default_factory=QuantileSketch)
    service: QuantileSketch = field(default_factory=QuantileSketch)
    cold_wait: QuantileSketch = field(default_factory=QuantileSketch)

    def observe_values(
        self, latency: float, queueing: float, service: float, cold_wait: float
    ) -> None:
        """Fold pre-computed stage durations in (the engine's hot path)."""
        self.latency.observe(latency)
        self.queueing.observe(queueing)
        self.service.observe(service)
        self.cold_wait.observe(cold_wait)

    def clone(self) -> "StageSketches":
        return StageSketches(
            latency=self.latency.clone(),
            queueing=self.queueing.clone(),
            service=self.service.clone(),
            cold_wait=self.cold_wait.clone(),
        )


@dataclass
class _ClassStats:
    """Streaming counterpart of one :class:`ClassSummary`."""

    offered: int = 0
    completed: int = 0
    timed_out: int = 0
    dropped: int = 0
    shed: int = 0
    cached: int = 0
    coalesced: int = 0
    rate_limited: int = 0
    rejected: int = 0
    deadline_total: int = 0
    deadline_met: int = 0
    stages: StageSketches = field(default_factory=StageSketches)
    #: Served latency (completed + cached + coalesced) — the stage sketches
    #: stay completed-only so waterfalls keep their backend-stage meaning.
    latency_served: QuantileSketch = field(default_factory=QuantileSketch)

    def observe_values(
        self,
        outcome: RequestOutcome,
        served: bool,
        latency: float,
        queueing: float,
        service: float,
        cold_wait: float,
        deadline_s: "Optional[float]",
        deadline_met: "Optional[bool]",
        track_stages: bool = True,
        track_served: bool = True,
    ) -> None:
        """Fold one outcome with its pre-computed stage durations.

        ``track_stages=False`` / ``track_served=False`` skip sketch updates
        for scopes whose sketches are shared with (or never read instead
        of) the owning :class:`StreamingTrafficStats` — the caller promises
        the shared object is updated exactly once elsewhere.
        """
        self.offered += 1
        if outcome is RequestOutcome.COMPLETED:
            self.completed += 1
            if track_stages:
                self.stages.observe_values(latency, queueing, service, cold_wait)
        elif outcome is RequestOutcome.TIMED_OUT:
            self.timed_out += 1
        elif outcome is RequestOutcome.DROPPED:
            self.dropped += 1
        elif outcome is RequestOutcome.SHED:
            self.shed += 1
        elif outcome is RequestOutcome.CACHED:
            self.cached += 1
        elif outcome is RequestOutcome.COALESCED:
            self.coalesced += 1
        elif outcome is RequestOutcome.RATE_LIMITED:
            self.rate_limited += 1
        elif outcome is RequestOutcome.REJECTED:
            self.rejected += 1
        if served and track_served:
            self.latency_served.observe(latency)
        if deadline_s is not None:
            self.deadline_total += 1
            if deadline_met:
                self.deadline_met += 1

    def summary(self, name: str) -> ClassSummary:
        return ClassSummary(
            name=name,
            offered=self.offered,
            completed=self.completed,
            timed_out=self.timed_out,
            dropped=self.dropped,
            shed=self.shed,
            cached=self.cached,
            coalesced=self.coalesced,
            rate_limited=self.rate_limited,
            rejected=self.rejected,
            deadline_total=self.deadline_total,
            deadline_met=self.deadline_met,
            latency=self.latency_served.summary(),
        )


class StreamingTrafficStats:
    """Constant-memory rollup of one request stream (a tenant or the cluster)."""

    def __init__(self, declared_classes: Sequence[str] = ()) -> None:
        self.offered = 0
        self.stages = StageSketches()
        self._classes: Dict[str, _ClassStats] = {}
        self._totals = _ClassStats()  # outcome/deadline counters across classes
        for name in declared_classes:
            self._class_stats(name)

    def _class_stats(self, name: str) -> _ClassStats:
        """The per-class accumulator, creating it on first sight.

        While exactly one class exists its sketches would hold exactly the
        scope-wide contents, so the sole class *shares* the scope's sketch
        objects (and ``observe`` skips the duplicate updates).  The moment a
        second class appears, the sole class's sketches are forked into
        independent copies — identical content, tracked separately from
        then on.
        """
        per_class = self._classes.get(name)
        if per_class is not None:
            return per_class
        if not self._classes:
            per_class = _ClassStats(
                stages=self.stages, latency_served=self._totals.latency_served
            )
        else:
            if len(self._classes) == 1:
                (sole,) = self._classes.values()
                if sole.stages is self.stages:
                    sole.stages = self.stages.clone()
                if sole.latency_served is self._totals.latency_served:
                    sole.latency_served = self._totals.latency_served.clone()
            per_class = _ClassStats()
        self._classes[name] = per_class
        return per_class

    def observe(self, record: RequestRecord) -> None:
        """Fold one finished request in; the record is not retained.

        The stage durations are computed once here (mirroring the
        :class:`~repro.traffic.slo.RequestRecord` property definitions) and
        fanned out as plain floats — the record's derived properties are
        never re-evaluated per scope, and the cross-class totals skip the
        stage sketches nobody reads off them.
        """
        arrival = record.arrival_s
        dispatch = record.dispatch_s
        completion = record.completion_s
        latency = 0.0 if completion is None else completion - arrival
        queueing = 0.0 if dispatch is None else dispatch - arrival
        service = (
            0.0
            if dispatch is None or completion is None
            else completion - dispatch
        )
        cold_wait = record.cold_start_wait_s
        outcome = record.outcome
        served = outcome in SERVED_OUTCOMES
        deadline_s = record.deadline_s
        deadline_met = (
            None if deadline_s is None else (served and completion <= deadline_s)
        )
        self.offered += 1
        self._totals.observe_values(
            outcome,
            served,
            latency,
            queueing,
            service,
            cold_wait,
            deadline_s,
            deadline_met,
            track_stages=False,
        )
        if outcome is RequestOutcome.COMPLETED:
            self.stages.observe_values(latency, queueing, service, cold_wait)
        per_class = self._classes.get(record.request_class)
        if per_class is None:
            per_class = self._class_stats(record.request_class)
        per_class.observe_values(
            outcome,
            served,
            latency,
            queueing,
            service,
            cold_wait,
            deadline_s,
            deadline_met,
            track_stages=per_class.stages is not self.stages,
            track_served=per_class.latency_served is not self._totals.latency_served,
        )

    @property
    def completed(self) -> int:
        return self._totals.completed

    def class_summaries(self) -> Tuple[ClassSummary, ...]:
        return tuple(
            self._classes[name].summary(name) for name in sorted(self._classes)
        )

    def summary(
        self,
        mode: str,
        pattern: str,
        duration_s: float,
        cold_starts: int = 0,
        cold_start_seconds: float = 0.0,
        replica_timeline: Sequence[Tuple[float, int]] = (),
        declared_classes: Sequence[str] = (),
        oom_evictions: int = 0,
        rss_mb_seconds: float = 0.0,
        cpu_seconds: float = 0.0,
    ) -> TrafficSummary:
        """The streaming analogue of :func:`repro.traffic.slo.summarize`."""
        from repro.traffic.slo import _replica_seconds  # shared step integration

        for name in declared_classes:  # zero-request classes still export rows
            self._class_stats(name)
        totals = self._totals
        return TrafficSummary(
            mode=mode,
            pattern=pattern,
            duration_s=duration_s,
            offered=self.offered,
            completed=totals.completed,
            timed_out=totals.timed_out,
            dropped=totals.dropped,
            shed=totals.shed,
            cached=totals.cached,
            coalesced=totals.coalesced,
            rate_limited=totals.rate_limited,
            rejected=totals.rejected,
            latency=totals.latency_served.summary(),
            queueing=self.stages.queueing.summary(),
            service=self.stages.service.summary(),
            cold_starts=cold_starts,
            cold_start_seconds=cold_start_seconds,
            replica_seconds=_replica_seconds(replica_timeline, duration_s),
            max_replicas=max((count for _, count in replica_timeline), default=0),
            replica_timeline=tuple(replica_timeline),
            classes=self.class_summaries(),
            oom_evictions=oom_evictions,
            rss_mb_seconds=rss_mb_seconds,
            cpu_seconds=cpu_seconds,
        )

    def waterfall(self, label: str) -> List[WaterfallRow]:
        """Sketch-estimated waterfall rows, matching the record-based shape."""
        rows = [
            _row_from_stages(label, name, stats.completed, stats.stages)
            for name, stats in sorted(self._classes.items())
            if stats.completed
        ]
        if len(rows) > 1:
            rows.append(
                _row_from_stages(label, "(all)", self._totals.completed, self.stages)
            )
        return rows


def _queue_only(stages: StageSketches) -> Tuple[float, float]:
    """Mean/p95 of the pure-queue wait, approximated from the two sketches.

    The record path subtracts cold wait per request; streaming can only
    subtract the aggregates, which is exact for the mean and a serviceable
    estimate for the tail (cold waits are near-constant per runtime).
    """
    mean_q = max(0.0, stages.queueing.mean - stages.cold_wait.mean)
    p95_q = max(0.0, stages.queueing.quantile(0.95) - stages.cold_wait.quantile(0.95))
    return mean_q, p95_q


def _row_from_stages(
    label: str, request_class: str, completed: int, stages: StageSketches
) -> WaterfallRow:
    queue_mean, queue_p95 = _queue_only(stages)
    return WaterfallRow(
        label=label,
        request_class=request_class,
        completed=completed,
        queue_mean_s=queue_mean,
        queue_p95_s=queue_p95,
        cold_mean_s=stages.cold_wait.mean,
        cold_p95_s=stages.cold_wait.quantile(0.95),
        service_mean_s=stages.service.mean,
        service_p95_s=stages.service.quantile(0.95),
        total_mean_s=stages.latency.mean,
        total_p95_s=stages.latency.quantile(0.95),
    )
