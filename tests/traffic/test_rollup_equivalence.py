"""The one-pass record rollup against the per-field passes it replaced.

:class:`~repro.traffic.slo.RecordRollup` reads each record once into
per-class counters and float columns, and :func:`summarize`,
:func:`summarize_classes` and :func:`waterfall_from_records` derive their
output from it.  The contract is byte identity: ``repr`` of every summary
and waterfall row must equal what the filter-per-field implementation
produced.  That implementation lives on below as the oracle, verbatim apart
from names, so the generated record sets can be checked against it
directly.

Two seeded end-to-end runs are pinned as well, by the sha256 of ``repr`` of
their summaries (and waterfall rows), recorded with the oracle's code.
``sum`` became compensated in Python 3.12, which moves the means' last
bits, so each run carries one digest per side of that change.
"""

import hashlib
import sys
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.middleware import build_pipeline
from repro.metrics.stats import LatencySummary
from repro.obs.spans import WaterfallRow, waterfall_from_records
from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals
from repro.traffic.autoscaler import Autoscaler, TargetConcurrencyPolicy
from repro.traffic.classes import RequestClass
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
from repro.traffic.slo import (
    ClassSummary,
    RecordRollup,
    RequestOutcome,
    RequestRecord,
    TrafficSummary,
    _replica_seconds,
    summarize,
    summarize_classes,
)
from repro.traffic.tenants import TenantSpec

# -- the oracle: the per-field implementation -------------------------------------


def _percentile(values, q):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _mean(values):
    return sum(values) / len(values)


def _latency_summary(values):
    return LatencySummary(
        count=len(values),
        mean_s=_mean(values),
        p50_s=_percentile(values, 50.0),
        p95_s=_percentile(values, 95.0),
        p99_s=_percentile(values, 99.0),
        max_s=max(values),
    )


def oracle_classes(records, declared=()):
    names = sorted(set(declared) | {record.request_class for record in records})
    summaries = []
    for name in names:
        mine = [record for record in records if record.request_class == name]
        served = [r for r in mine if r.served]
        with_deadline = [r for r in mine if r.deadline_s is not None]
        summaries.append(
            ClassSummary(
                name=name,
                offered=len(mine),
                completed=sum(1 for r in mine if r.outcome is RequestOutcome.COMPLETED),
                timed_out=sum(1 for r in mine if r.outcome is RequestOutcome.TIMED_OUT),
                dropped=sum(1 for r in mine if r.outcome is RequestOutcome.DROPPED),
                shed=sum(1 for r in mine if r.outcome is RequestOutcome.SHED),
                cached=sum(1 for r in mine if r.outcome is RequestOutcome.CACHED),
                coalesced=sum(1 for r in mine if r.outcome is RequestOutcome.COALESCED),
                rate_limited=sum(
                    1 for r in mine if r.outcome is RequestOutcome.RATE_LIMITED
                ),
                rejected=sum(1 for r in mine if r.outcome is RequestOutcome.REJECTED),
                deadline_total=len(with_deadline),
                deadline_met=sum(1 for r in with_deadline if r.deadline_met),
                latency=(
                    _latency_summary([r.latency_s for r in served])
                    if served
                    else LatencySummary.empty()
                ),
            )
        )
    return tuple(summaries)


def oracle_summarize(mode, pattern, duration_s, records, declared_classes=()):
    completed = [r for r in records if r.outcome is RequestOutcome.COMPLETED]
    served = [r for r in records if r.served]
    if served:
        latency = _latency_summary([r.latency_s for r in served])
    else:
        latency = LatencySummary.empty()
    if completed:
        queueing = _latency_summary([r.queueing_delay_s for r in completed])
        service = _latency_summary([r.service_s for r in completed])
    else:
        queueing = service = LatencySummary.empty()
    return TrafficSummary(
        mode=mode,
        pattern=pattern,
        duration_s=duration_s,
        offered=len(records),
        completed=len(completed),
        timed_out=sum(1 for r in records if r.outcome is RequestOutcome.TIMED_OUT),
        dropped=sum(1 for r in records if r.outcome is RequestOutcome.DROPPED),
        shed=sum(1 for r in records if r.outcome is RequestOutcome.SHED),
        cached=sum(1 for r in records if r.outcome is RequestOutcome.CACHED),
        coalesced=sum(1 for r in records if r.outcome is RequestOutcome.COALESCED),
        rate_limited=sum(
            1 for r in records if r.outcome is RequestOutcome.RATE_LIMITED
        ),
        rejected=sum(1 for r in records if r.outcome is RequestOutcome.REJECTED),
        latency=latency,
        queueing=queueing,
        service=service,
        cold_starts=0,
        cold_start_seconds=0.0,
        replica_seconds=_replica_seconds((), duration_s),
        max_replicas=0,
        replica_timeline=(),
        classes=oracle_classes(records, declared=declared_classes),
        oom_evictions=0,
        rss_mb_seconds=0.0,
        cpu_seconds=0.0,
    )


def _oracle_row(label, request_class, records):
    queues = [max(0.0, r.queueing_delay_s - r.cold_start_wait_s) for r in records]
    colds = [r.cold_start_wait_s for r in records]
    services = [r.service_s for r in records]
    totals = [r.latency_s for r in records]
    return WaterfallRow(
        label=label,
        request_class=request_class,
        completed=len(records),
        queue_mean_s=_mean(queues),
        queue_p95_s=_percentile(queues, 95.0),
        cold_mean_s=_mean(colds),
        cold_p95_s=_percentile(colds, 95.0),
        service_mean_s=_mean(services),
        service_p95_s=_percentile(services, 95.0),
        total_mean_s=_mean(totals),
        total_p95_s=_percentile(totals, 95.0),
    )


def oracle_waterfall(label, records):
    completed = [r for r in records if r.outcome is RequestOutcome.COMPLETED]
    by_class: Dict[str, List[RequestRecord]] = {}
    for record in completed:
        by_class.setdefault(record.request_class, []).append(record)
    rows = [_oracle_row(label, name, mine) for name, mine in sorted(by_class.items())]
    if len(rows) > 1:
        rows.append(_oracle_row(label, "(all)", completed))
    return rows


# -- generated record sets ---------------------------------------------------------

CLASSES = ("batch", "interactive", "web")
FAILURES = tuple(
    outcome
    for outcome in RequestOutcome
    if outcome
    not in (RequestOutcome.COMPLETED, RequestOutcome.CACHED, RequestOutcome.COALESCED)
)
_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
# Zero spans and ties are where percentile interpolation and the queue
# clamp (cold wait longer than the wait) are easiest to get wrong.
_spans = st.one_of(
    st.just(0.0), st.sampled_from([0.25, 1.0]), st.floats(0.0, 5.0, allow_nan=False)
)


@st.composite
def _record(draw, request_id, outcomes):
    outcome = draw(st.sampled_from(outcomes))
    arrival = draw(_times)
    dispatch = completion = None
    if outcome is RequestOutcome.COMPLETED:
        dispatch = arrival + draw(_spans)
        completion = dispatch + draw(_spans)
    elif outcome in (RequestOutcome.CACHED, RequestOutcome.COALESCED):
        completion = arrival + draw(_spans)
    elif draw(st.booleans()):
        # A failed request may still carry times (a timeout after dispatch,
        # say); none of them may leak into latency or deadline figures.
        dispatch = arrival + draw(_spans)
        completion = dispatch + draw(_spans)
    # None: no deadline; otherwise soft or (for shed requests) hard, as the
    # record only carries the absolute deadline either way.
    deadline = draw(st.one_of(st.none(), st.just(arrival), _times))
    return RequestRecord(
        request_id=request_id,
        function="fn",
        outcome=outcome,
        arrival_s=arrival,
        dispatch_s=dispatch,
        completion_s=completion,
        cold_start_wait_s=draw(_spans) if dispatch is not None else 0.0,
        request_class=draw(st.sampled_from(CLASSES)),
        deadline_s=deadline,
    )


@st.composite
def record_sets(draw, min_size=0, max_size=30):
    outcomes = draw(st.sampled_from([tuple(RequestOutcome), FAILURES]))
    size = draw(st.integers(min_size, max_size))
    return [draw(_record(request_id, outcomes)) for request_id in range(size)]


_declared = st.lists(st.sampled_from(CLASSES + ("quiet",)), unique=True, max_size=4)


def _assert_matches(records, declared, rollup=None):
    subject = records if rollup is None else rollup
    assert repr(
        summarize("m", "p", 10.0, subject, declared_classes=declared)
    ) == repr(oracle_summarize("m", "p", 10.0, records, declared_classes=declared))
    assert repr(summarize_classes(subject, declared)) == repr(
        oracle_classes(records, declared)
    )
    assert repr(waterfall_from_records("t", subject)) == repr(
        oracle_waterfall("t", records)
    )


@settings(max_examples=200, deadline=None)
@given(records=record_sets(), declared=_declared)
def test_rollup_matches_the_per_field_oracle(records, declared):
    _assert_matches(records, declared)


@settings(max_examples=100, deadline=None)
@given(
    records=record_sets(),
    declared=_declared,
    cut=st.integers(0, 30),
)
def test_folded_rollups_match_the_concatenated_records(records, declared, cut):
    rollup = RecordRollup(records[:cut])
    rollup.fold(RecordRollup(records[cut:]))
    _assert_matches(records, declared, rollup=rollup)


def test_one_record_and_all_failed_slices():
    served = RequestRecord(
        request_id=1,
        function="fn",
        outcome=RequestOutcome.COMPLETED,
        arrival_s=0.5,
        dispatch_s=1.0,
        completion_s=1.75,
        cold_start_wait_s=0.75,  # longer than the wait: the queue clamps to 0
        request_class="web",
        deadline_s=2.0,
    )
    failed = [
        RequestRecord(
            request_id=index,
            function="fn",
            outcome=outcome,
            arrival_s=float(index),
            request_class="batch",
            deadline_s=None if index % 2 else float(index) + 1.0,
        )
        for index, outcome in enumerate(FAILURES)
    ]
    for records in ([served], failed, failed + [served], []):
        _assert_matches(records, ("quiet",))


# -- seeded end-to-end runs --------------------------------------------------------

_COMPENSATED_SUM = sys.version_info >= (3, 12)

_CLASS_MIX = (
    RequestClass("interactive", share=0.3, priority=0, deadline_s=0.3, hard=True),
    RequestClass("web", share=0.3, priority=1, deadline_s=0.6),
    RequestClass("batch", share=0.4, priority=2),
)
_QUIET = RequestClass("quiet", share=1e-9, priority=3)


def _tenants():
    return [
        TenantSpec(
            name="rr-user",
            mode="roadrunner-user",
            classes=_CLASS_MIX + (_QUIET,),
            arrivals=PoissonArrivals(rate_rps=60.0, duration_s=3.0, payload_mb=1.0, seed=11),
        ),
        TenantSpec(
            name="rr-kernel",
            mode="roadrunner-kernel",
            classes=_CLASS_MIX,
            arrivals=BurstyArrivals(
                on_rate_rps=400.0, duration_s=3.0, on_s=1.0, off_s=1.0,
                payload_mb=2.0, seed=12,
            ),
        ),
        TenantSpec(
            name="runc",
            mode="runc-http",
            classes=_CLASS_MIX,
            arrivals=PoissonArrivals(rate_rps=40.0, duration_s=3.0, payload_mb=0.5, seed=13),
        ),
        TenantSpec(
            name="wasmedge",
            mode="wasmedge-http",
            arrivals=PoissonArrivals(rate_rps=30.0, duration_s=3.0, payload_mb=0.25, seed=14),
        ),
    ]


def _autoscaler():
    return Autoscaler(TargetConcurrencyPolicy(1.0), max_replicas=4, keep_alive_s=1.0)


def _digest(*objects):
    return hashlib.sha256("".join(map(repr, objects)).encode("utf-8")).hexdigest()


def test_four_tenant_retained_run_digest():
    engine = MultiTenantTrafficEngine(
        _tenants(),
        config=TrafficConfig(
            nodes=2, initial_replicas=1, max_queue=2, queue_timeout_s=0.5,
            node_memory_mb=96.0,
        ),
        fairness=FairnessPolicy.WFQ_COST,
        intra=IntraTenantOrder.EDF,
        autoscaler_factory=_autoscaler,
        middleware=build_pipeline(
            ["auth", "rate-limit", "cache", "coalesce"],
            rate_limit_rps=150.0, rate_limit_burst=20.0, auth_quota=400,
            cache_ttl_s=0.01,
        ),
    )
    summary = engine.run()
    cluster = summary.cluster
    # Every outcome the engine can produce here shows up in the pin.
    assert min(
        cluster.completed, cluster.timed_out, cluster.shed, cluster.cached,
        cluster.coalesced, cluster.rate_limited, cluster.rejected,
    ) > 0
    assert [cls.name for cls in cluster.classes if cls.offered == 0] == ["quiet"]
    expected = (
        "4a7b23e85dc4d6f1c5d73e19249591658b0f0b819a565c26e6c0e455eb8c7fbb"
        if _COMPENSATED_SUM
        else "909c5bd96019dce20ed30c1ab85bf9b08967692e5742d1cbe1fece33c071e369"
    )
    assert _digest(summary, engine.waterfall) == expected


def test_two_region_retained_federation_digest():
    engine = FederatedTrafficEngine(
        _tenants()[:2],
        [
            ClusterSpec(region="eu-west", nodes=2, tenants=("rr-user",)),
            ClusterSpec(region="us-east", nodes=2, tenants=("rr-kernel",)),
        ],
        config=TrafficConfig(initial_replicas=1, queue_timeout_s=0.5, max_queue=40),
        intra=IntraTenantOrder.EDF,
        autoscaler_factory=_autoscaler,
        middleware_factory=lambda region: build_pipeline(
            ["cache", "coalesce"], cache_ttl_s=0.01
        ),
        fail_at={"eu-west": 1.5},
    )
    summary = engine.run()
    expected = (
        "8f938f504c8e1f9c12d9a29c42ac4d57c96f434a854c02bfb951140423b96fff"
        if _COMPENSATED_SUM
        else "9e158766b5c27e95a92285eceb50130d083e0a4089d48f259aa01e9ac0ed01b4"
    )
    assert _digest(summary) == expected
