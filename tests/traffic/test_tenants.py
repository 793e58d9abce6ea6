"""Tests for multi-tenant traffic: specs, arbitration, the shared engine."""

import json

import pytest

from repro.platform.gateway import FairnessPolicy
from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals, Request
from repro.traffic.autoscaler import Autoscaler, FixedReplicasPolicy, NoScalingPolicy
from repro.traffic.classes import RequestClass
from repro.traffic.engine import (
    MultiTenantTrafficEngine,
    TrafficConfig,
    TrafficEngineError,
)
from repro.traffic.tenants import (
    CapacityArbiter,
    TenantError,
    TenantSpec,
    derived_seed,
    parse_tenants,
)

MB = 1024 * 1024


def _burst_requests(count, function, arrival_s=0.0):
    return tuple(
        Request(request_id=i, arrival_s=arrival_s, function=function, payload_bytes=MB)
        for i in range(count)
    )


def _tenant(name, count=4, weight=1, mode="roadrunner-user"):
    return TenantSpec(
        name=name, mode=mode, weight=weight, requests=_burst_requests(count, name)
    )


# -- TenantSpec ---------------------------------------------------------------------


def test_tenant_spec_validates_inputs():
    with pytest.raises(TenantError):
        TenantSpec(name="", arrivals=PoissonArrivals(1.0, 1.0))
    with pytest.raises(TenantError):
        TenantSpec(name="t", weight=0, arrivals=PoissonArrivals(1.0, 1.0))
    with pytest.raises(TenantError):
        TenantSpec(name="t")  # neither arrivals nor requests
    with pytest.raises(TenantError):
        TenantSpec(
            name="t",
            arrivals=PoissonArrivals(1.0, 1.0),
            requests=_burst_requests(1, "t"),
        )


def test_tenant_spec_retags_requests_with_its_function():
    spec = TenantSpec(
        name="steady",
        arrivals=PoissonArrivals(rate_rps=10, duration_s=5, function="app", seed=1),
    )
    requests = spec.generate()
    assert requests
    assert {request.function for request in requests} == {"steady"}
    # Retagging preserves everything else.
    original = spec.arrivals.generate()
    assert [r.arrival_s for r in requests] == [r.arrival_s for r in original]


# -- CapacityArbiter ----------------------------------------------------------------


def test_arbiter_guarantees_weighted_shares():
    arbiter = CapacityArbiter(8, {"a": 3, "b": 1})
    assert arbiter.guaranteed == {"a": 6, "b": 2}
    # From empty, each tenant can claim its guarantee outright.
    assert arbiter.grant("a", 10, {"a": 0, "b": 0}) == 6
    assert arbiter.grant("b", 10, {"a": 0, "b": 0}) == 2


def test_arbiter_lends_only_unreserved_capacity():
    arbiter = CapacityArbiter(8, {"a": 1, "b": 1})  # guarantees: 4 and 4
    # b holds 2 of its 4: the other 2 stay reserved, a gets its own 4 only.
    assert arbiter.grant("a", 10, {"a": 0, "b": 2}) == 4
    # With b at its guarantee, a may grow into the genuinely free slots.
    assert arbiter.grant("a", 10, {"a": 0, "b": 4}) == 4
    assert arbiter.grant("a", 10, {"a": 4, "b": 4}) == 0
    # b overshooting its guarantee reserves nothing extra; a takes what's left.
    assert arbiter.grant("a", 10, {"a": 0, "b": 6}) == 2
    assert arbiter.grant("a", 0, {"a": 0, "b": 0}) == 0


def test_arbiter_lends_idle_tenants_shares_under_demand():
    arbiter = CapacityArbiter(8, {"a": 1, "b": 1})  # guarantees: 4 and 4
    # b is idle (zero demand): its whole share is lendable, a may take all 8.
    assert arbiter.grant("a", 10, {"a": 0, "b": 0}, demand={"a": 20, "b": 0}) == 8
    # b wants only 1 replica: 3 of its 4 guaranteed slots are lendable.
    assert arbiter.grant("a", 10, {"a": 0, "b": 0}, demand={"a": 20, "b": 1}) == 7
    # Full contention: reservations protect b's whole guarantee again.
    assert arbiter.grant("a", 10, {"a": 0, "b": 0}, demand={"a": 20, "b": 20}) == 4


def test_arbiter_serves_zero_guarantee_tenants_opportunistically():
    # Ten equal tenants, eight slots: two tenants' guarantees round to 0.
    arbiter = CapacityArbiter(8, {"t%d" % i: 1 for i in range(10)})
    assert sum(arbiter.guaranteed.values()) == 8
    starved = [name for name, share in arbiter.guaranteed.items() if share == 0]
    assert len(starved) == 2
    idle = {name: 0 for name in arbiter.weights}
    # With everyone else idle, a zero-guarantee tenant can still borrow.
    assert arbiter.grant(starved[0], 4, idle, demand={starved[0]: 4}) == 4


def test_arbiter_apportions_when_tenants_outnumber_slots():
    # Largest-remainder apportionment: the heavy tenant must not be locked
    # out by earlier-registered light tenants, and guarantees sum exactly
    # to capacity regardless of registration order.
    arbiter = CapacityArbiter(2, {"a": 1, "b": 1, "c": 4})
    assert sum(arbiter.guaranteed.values()) == 2
    assert arbiter.guaranteed["c"] >= 1
    assert arbiter.grant("c", 4, {"a": 0, "b": 0, "c": 0}) >= 1
    flipped = CapacityArbiter(2, {"c": 4, "b": 1, "a": 1})
    assert flipped.guaranteed == arbiter.guaranteed


def test_arbiter_rejects_bad_parameters():
    with pytest.raises(TenantError):
        CapacityArbiter(0, {"a": 1})
    with pytest.raises(TenantError):
        CapacityArbiter(4, {})
    with pytest.raises(TenantError):
        CapacityArbiter(4, {"a": 0})
    with pytest.raises(TenantError):
        CapacityArbiter(4, {"a": 1}).grant("ghost", 1, {})


# -- parse_tenants ------------------------------------------------------------------


def test_parse_tenants_inline_json_with_derived_seeds():
    specs = parse_tenants(
        '[{"name": "steady", "rps": 5, "duration": 10, "weight": 2},'
        ' {"name": "noisy", "pattern": "bursty", "rps": 50, "duration": 10}]',
        base_seed=42,
    )
    assert [spec.name for spec in specs] == ["steady", "noisy"]
    assert specs[0].weight == 2 and specs[1].weight == 1
    assert specs[0].arrivals.seed == derived_seed(42, "steady")
    assert specs[1].arrivals.seed == derived_seed(42, "noisy")
    assert specs[1].pattern_name == "bursty"


def test_parse_tenants_from_file_and_all_patterns(tmp_path):
    config = [
        {"name": "p", "pattern": "poisson", "rps": 5, "duration": 5},
        {"name": "b", "pattern": "bursty", "rps": 5, "duration": 5, "burst_on": 1, "burst_off": 2},
        {"name": "d", "pattern": "diurnal", "rps": 5, "duration": 5, "period": 10, "trough_rps": 1},
    ]
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    specs = parse_tenants(str(path))
    assert [spec.pattern_name for spec in specs] == ["poisson", "bursty", "diurnal"]
    for spec in specs:
        assert spec.generate()


@pytest.mark.parametrize(
    "bad",
    [
        "not json",
        "{}",
        "[]",
        '[{"rps": 5}]',
        '[{"name": "a", "pattern": "weird"}]',
        '[{"name": "a"}, {"name": "a"}]',
        '[{"name": "a", "typo_key": 1}]',
        '[{"name": "cluster"}]',  # reserved for the rollup row
        '[{"name": "a", "rps": null}]',
        '[{"name": "a", "weight": [2]}]',
        '[{"name": "a", "pattern": "diurnal", "period": {}}]',
    ],
)
def test_parse_tenants_rejects_malformed_configs(bad):
    with pytest.raises(TenantError):
        parse_tenants(bad)


def test_parse_tenants_honours_cli_defaults():
    # The CLI threads --duration and the first --modes entry through; a
    # tenant without its own keys must inherit them.
    specs = parse_tenants(
        '[{"name": "a"}, {"name": "b", "duration": 5, "mode": "wasmedge-http"}]',
        default_mode="runc-http",
        default_duration=99.0,
    )
    assert specs[0].arrivals.duration_s == 99.0
    assert specs[0].mode == "runc-http"
    assert specs[1].arrivals.duration_s == 5.0
    assert specs[1].mode == "wasmedge-http"


def test_parse_tenants_rejects_unreadable_paths(tmp_path):
    # A directory passes os.path.exists but cannot be read as a config.
    with pytest.raises(TenantError):
        parse_tenants(str(tmp_path))


def test_parse_tenants_clamps_diurnal_trough_for_low_rates():
    # Matches the single-stream CLI default: trough <= peak even at rps < 0.1.
    (spec,) = parse_tenants('[{"name": "t", "pattern": "diurnal", "rps": 0.05, "duration": 5}]')
    assert spec.arrivals.trough_rps <= spec.arrivals.peak_rps


# -- MultiTenantTrafficEngine -------------------------------------------------------


def test_engine_validates_tenant_lists():
    with pytest.raises(TrafficEngineError):
        MultiTenantTrafficEngine([])
    with pytest.raises(TrafficEngineError):
        MultiTenantTrafficEngine([_tenant("a"), _tenant("a")])
    with pytest.raises(TrafficEngineError):
        MultiTenantTrafficEngine([_tenant("a", mode="no-such-mode")])
    with pytest.raises(TrafficEngineError):
        MultiTenantTrafficEngine([_tenant("a")], oversubscription=0.5)
    with pytest.raises(TrafficEngineError):
        MultiTenantTrafficEngine([_tenant("cluster")])  # reserved rollup name
    with pytest.raises(TrafficEngineError):
        MultiTenantTrafficEngine([_tenant("a")], starvation_guard=0)
    clash = TenantSpec(name="b", requests=_burst_requests(1, "shared"), function="shared")
    other = TenantSpec(name="c", requests=_burst_requests(1, "shared"), function="shared")
    with pytest.raises(TrafficEngineError):
        MultiTenantTrafficEngine([clash, other])


def test_single_stream_engine_accepts_any_function_name():
    # The reserved multi-tenant name must not leak into the single-stream
    # wrapper: "cluster" is a legal *function* name there.
    from repro.traffic.engine import TrafficEngine

    requests = _burst_requests(3, "cluster")
    engine = TrafficEngine("roadrunner-user", config=TrafficConfig(nodes=1))
    summary = engine.run(list(requests))
    assert summary.completed == 3
    assert all(record.function == "cluster" for record in engine.records)


def test_two_tenants_complete_on_a_shared_cluster():
    engine = MultiTenantTrafficEngine(
        [_tenant("a", count=6), _tenant("b", count=4, mode="runc-http")],
        config=TrafficConfig(nodes=2, initial_replicas=1),
    )
    result = engine.run()
    assert result.tenant("a").completed == 6
    assert result.tenant("b").completed == 4
    assert result.cluster.offered == 10
    assert result.cluster.completed == 10
    assert set(result.weights) == {"a", "b"}
    # Per-tenant records kept separately, sorted by request id.
    assert [r.request_id for r in engine.records["a"]] == list(range(6))
    with pytest.raises(TenantError):
        result.tenant("ghost")


def test_zero_request_tenant_gets_an_empty_summary():
    empty = TenantSpec(name="idle", requests=(), mode="roadrunner-user")
    engine = MultiTenantTrafficEngine(
        [_tenant("busy", count=3), empty],
        config=TrafficConfig(nodes=1, initial_replicas=1),
    )
    result = engine.run()
    idle = result.tenant("idle")
    assert idle.offered == idle.completed == idle.dropped == 0
    assert idle.latency.count == 0
    assert result.cluster.offered == 3


def test_per_tenant_drop_and_timeout_accounting():
    # One replica, no scaling, tiny queue bound: the flood tenant drops and
    # times out; the gateway's per-tenant stats must match the summaries.
    flood = _tenant("flood", count=30)
    trickle = TenantSpec(
        name="trickle",
        requests=_burst_requests(2, "trickle", arrival_s=8.0),
    )
    engine = MultiTenantTrafficEngine(
        [flood, trickle],
        config=TrafficConfig(nodes=1, initial_replicas=1, max_queue=5, queue_timeout_s=0.05),
        autoscaler_factory=lambda: Autoscaler(NoScalingPolicy(), min_replicas=1, max_replicas=1),
        oversubscription=1.0,
    )
    result = engine.run()
    summary = result.tenant("flood")
    stats = result.queue_stats["flood"]
    assert summary.dropped == stats.dropped == 25
    assert summary.timed_out == stats.timed_out > 0
    assert summary.offered == 30
    # The late trickle tenant is unaffected by flood's drops.
    assert result.tenant("trickle").completed == 2
    assert result.queue_stats["trickle"].dropped == 0


def test_multi_tenant_run_is_seeded_deterministic():
    def build():
        return MultiTenantTrafficEngine(
            [
                TenantSpec(
                    name="a",
                    arrivals=PoissonArrivals(rate_rps=20, duration_s=5, function="a", seed=3),
                ),
                TenantSpec(
                    name="b",
                    weight=2,
                    arrivals=PoissonArrivals(rate_rps=10, duration_s=5, function="b", seed=4),
                ),
            ],
            config=TrafficConfig(nodes=1, initial_replicas=1),
            fairness=FairnessPolicy.WFQ,
        )

    first, second = build().run(), build().run()
    assert first.tenants == second.tenants
    assert first.cluster == second.cluster
    assert first.weights == second.weights


def test_node_usage_rollup_covers_every_node_and_the_cluster_shard():
    tenants = [
        TenantSpec(
            name="steady",
            mode="roadrunner-user",
            weight=2,
            arrivals=PoissonArrivals(
                rate_rps=25, duration_s=8, function="steady", payload_mb=0.5, seed=11
            ),
            classes=(RequestClass(name="rt", deadline_s=0.5, hard=True),),
        ),
        TenantSpec(
            name="noisy",
            mode="runc-http",
            weight=1,
            arrivals=BurstyArrivals(
                on_rate_rps=60, duration_s=8, function="noisy", payload_mb=1.0, seed=7
            ),
        ),
    ]
    summary = MultiTenantTrafficEngine(tenants, config=TrafficConfig(nodes=4)).run()
    assert set(summary.nodes) == {"cluster", "traffic-0", "traffic-1", "traffic-2", "traffic-3"}
    cluster_row = summary.nodes["cluster"]
    assert cluster_row.charges > 0  # ingress routing charges are node-less
    assert sum(usage.charges for usage in summary.nodes.values()) > cluster_row.charges


def test_arbiter_caps_total_replicas_at_oversubscribed_slots():
    engine = MultiTenantTrafficEngine(
        [_tenant("a", count=40), _tenant("b", count=40)],
        config=TrafficConfig(nodes=1, initial_replicas=0),
        autoscaler_factory=lambda: Autoscaler(
            FixedReplicasPolicy(64), min_replicas=0, max_replicas=64
        ),
        oversubscription=2.0,
    )
    result = engine.run()
    # One 4-core node, oversubscription 2.0 -> at most 8 replica slots total.
    total_peak = max(count for _, count in result.cluster.replica_timeline)
    assert total_peak <= 8
    assert result.cluster.completed == 80
