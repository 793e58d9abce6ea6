"""Tests for the federated traffic engine: specs, routing, failover, rollups."""

import json

import pytest

from repro.platform.gateway import FairnessPolicy
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.federation import (
    ROUTER_POLICIES,
    ClusterSpec,
    FederatedTrafficEngine,
    FederationError,
    parse_clusters,
    parse_fail_spec,
)
from repro.traffic.report import render_federation_report, render_router_table
from repro.traffic.tenants import TenantSpec


def _tenant(name, rps=30.0, duration=6.0, seed=7, mode="roadrunner-user"):
    return TenantSpec(
        name=name,
        mode=mode,
        arrivals=PoissonArrivals(
            rate_rps=rps, duration_s=duration, payload_mb=1.0, seed=seed
        ),
    )


def _two_region_engine(**kwargs):
    tenants = [_tenant("steady", seed=3), _tenant("spiky", rps=50.0, seed=5)]
    clusters = [
        ClusterSpec(region="eu-west", nodes=4, tenants=("steady",)),
        ClusterSpec(region="us-east", nodes=4, tenants=("spiky",)),
    ]
    return FederatedTrafficEngine(tenants, clusters, **kwargs)


# -- specs & parsing ----------------------------------------------------------------


def test_parse_clusters_accepts_json_and_rejects_unknown_keys():
    clusters = parse_clusters(
        '[{"region": "eu", "nodes": 2, "tenants": ["a"]}, {"region": "us"}]'
    )
    assert [c.region for c in clusters] == ["eu", "us"]
    assert clusters[0].nodes == 2 and clusters[0].tenants == ("a",)
    with pytest.raises(FederationError):
        parse_clusters('[{"region": "eu", "bogus": 1}]')
    with pytest.raises(FederationError):
        parse_clusters('[{"nodes": 2}]')  # region is required


def test_parse_fail_spec():
    assert parse_fail_spec("eu-west@4.5") == ("eu-west", 4.5)
    with pytest.raises(FederationError):
        parse_fail_spec("eu-west")
    with pytest.raises(FederationError):
        parse_fail_spec("@3")
    with pytest.raises(FederationError):
        parse_fail_spec("eu@not-a-time")


@pytest.mark.parametrize("at", ["nan", "inf", "-inf", "-1"])
def test_parse_fail_spec_rejects_non_finite_and_negative_times(at):
    with pytest.raises(FederationError, match="finite and non-negative"):
        parse_fail_spec("eu@%s" % at)


@pytest.mark.parametrize("at", [float("nan"), float("inf"), -1.0])
def test_engine_rejects_non_finite_and_negative_fail_times(at):
    # A NaN instant would corrupt the event heap's order deep into the run;
    # infinity would report a region failed that never failed.
    with pytest.raises(FederationError, match="finite and non-negative"):
        _two_region_engine(fail_at={"eu-west": at})


def test_engine_validates_regions_homes_and_policies():
    tenants = [_tenant("a")]
    clusters = [ClusterSpec(region="eu"), ClusterSpec(region="eu")]
    with pytest.raises(FederationError):
        FederatedTrafficEngine(tenants, clusters)  # duplicate region
    with pytest.raises(FederationError):
        FederatedTrafficEngine(
            tenants, [ClusterSpec(region="eu", tenants=("ghost",))]
        )  # unknown tenant homed
    with pytest.raises(FederationError):
        FederatedTrafficEngine(
            tenants,
            [
                ClusterSpec(region="eu", tenants=("a",)),
                ClusterSpec(region="us", tenants=("a",)),
            ],
        )  # homed twice
    with pytest.raises(FederationError):
        FederatedTrafficEngine(tenants, [ClusterSpec(region="eu")], router="bogus")
    with pytest.raises(FederationError):
        FederatedTrafficEngine(
            tenants, [ClusterSpec(region="eu")], fail_at={"mars": 1.0}
        )


# -- single-cluster identity --------------------------------------------------------


def test_single_cluster_federation_matches_unfederated_engine():
    """The tentpole invariant: one loopback region == the plain engine."""
    tenants = [_tenant("steady", seed=3), _tenant("spiky", rps=50.0, seed=5)]
    config = TrafficConfig(nodes=4)
    baseline = MultiTenantTrafficEngine(
        [_tenant("steady", seed=3), _tenant("spiky", rps=50.0, seed=5)],
        config=config,
    )
    expected = baseline.run()
    engine = FederatedTrafficEngine(
        tenants, [ClusterSpec(region="traffic", nodes=4)], config=config
    )
    summary = engine.run()
    region = summary.region("traffic")
    assert repr(region) == repr(expected)
    for name in ("steady", "spiky"):
        assert engine.records["traffic"][name] == baseline.records[name]
    # The global rollup over one region IS that region.
    assert repr(summary.tenants) == repr(expected.tenants)
    assert summary.router.remote == 0 and summary.router.wan_bytes == 0


# -- routing policies ---------------------------------------------------------------


def test_locality_router_keeps_traffic_at_home():
    engine = _two_region_engine()
    summary = engine.run()
    assert summary.router.policy == "locality"
    assert summary.router.remote == 0
    assert summary.router.spillovers == 0
    assert summary.home == {"steady": "eu-west", "spiky": "us-east"}
    assert summary.region("eu-west").tenants["steady"].offered > 0
    assert summary.region("us-east").tenants["spiky"].offered > 0
    # All offered load completes somewhere.
    assert summary.cluster.offered == summary.cluster.completed


@pytest.mark.parametrize("policy", ROUTER_POLICIES)
def test_every_router_policy_serves_the_full_load(policy):
    summary = _two_region_engine(router=policy).run()
    assert summary.cluster.completed == summary.cluster.offered
    assert sum(summary.router.placements.values()) == summary.cluster.offered


def test_random_router_is_seeded_and_spreads_load():
    first = _two_region_engine(router="random", router_seed=11).run()
    second = _two_region_engine(router="random", router_seed=11).run()
    assert first.router.placements == second.router.placements
    assert all(count > 0 for count in first.router.placements.values())
    assert first.router.remote > 0
    # Remote placements pay the WAN.
    assert first.router.wan_bytes > 0 and first.router.wan_seconds > 0


# -- failure & spillover ------------------------------------------------------------


def test_regional_failure_spills_traffic_to_survivors():
    summary = _two_region_engine(fail_at={"us-east": 3.0}).run()
    assert summary.failed_regions == ("us-east",)
    # Post-failure spiky arrivals spill into eu-west instead of being lost.
    assert summary.router.spillovers > 0
    assert summary.region("eu-west").tenants["spiky"].completed > 0
    assert summary.cluster.completed == summary.cluster.offered
    assert summary.router.wan_bytes > 0


def test_all_regions_failed_rejects_the_tail():
    tenants = [_tenant("steady", duration=6.0)]
    engine = FederatedTrafficEngine(
        tenants,
        [ClusterSpec(region="eu", nodes=2)],
        config=TrafficConfig(queue_timeout_s=1.0),
        fail_at={"eu": 2.0},
    )
    summary = engine.run()
    # Arrivals after the lone region died cannot complete.
    assert summary.cluster.completed < summary.cluster.offered
    assert summary.cluster.timed_out > 0


# -- reports ------------------------------------------------------------------------


def test_federation_report_renders_regions_and_router():
    summary = _two_region_engine(fail_at={"us-east": 3.0}).run()
    report = render_federation_report(summary)
    for token in (
        "Global router (locality)",
        "eu-west",
        "us-east",
        "FAILED",
        "Per-region rollup",
        "Federation rollup",
        "=== region eu-west ===",
    ):
        assert token in report, token
    table = render_router_table(summary)
    assert "spillovers" in table and "home tenants" in table


def test_cluster_spec_config_overrides():
    base = TrafficConfig(nodes=4, initial_replicas=1)
    spec = ClusterSpec(region="eu", nodes=2, initial_replicas=3)
    derived = spec.config_for(base)
    assert derived.nodes == 2 and derived.initial_replicas == 3
    # Unset keys inherit from the base config.
    assert derived.queue_timeout_s == base.queue_timeout_s
    assert ClusterSpec(region="us").config_for(base).nodes == 4


def test_summary_region_accessor_raises_on_unknown_region():
    summary = _two_region_engine().run()
    with pytest.raises(FederationError):
        summary.region("mars")
