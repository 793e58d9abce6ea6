"""Memory-pressure resource model: budgets, inflation, OOM eviction.

The model must be invisible when disabled (``node_memory_mb == 0`` keeps
every output byte-identical to a memory-free build), deterministic when
enabled (same seeds -> same eviction order), and its
three effects observable: service-time inflation past the knee, keep-alive
economics, and the evictor reclaiming the coldest idle replica.
"""

import dataclasses
import json

import pytest

from repro.metrics.export import (
    figure_from_csv,
    figure_from_json,
    figure_to_csv,
    figure_to_json,
    traffic_from_figure,
    traffic_to_figure,
)
from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals
from repro.traffic.engine import (
    MultiTenantTrafficEngine,
    TrafficConfig,
    TrafficEngineError,
)
from repro.traffic.memory import (
    MemoryModelError,
    NodeMemoryModel,
    default_replica_rss_mb,
)
from repro.traffic.report import render_summary_table
from repro.traffic.slo import summarize
from repro.traffic.tenants import TenantError, TenantSpec, parse_tenants
from repro.sim.costs import DEFAULT_COST_MODEL


def _tenants():
    """Two tenants whose bursts leave warm-but-idle replicas behind."""
    return [
        TenantSpec(
            name="alpha",
            mode="runc-http",  # heavy: container baseline RSS
            weight=1,
            arrivals=BurstyArrivals(
                on_rate_rps=40, duration_s=12, function="alpha", payload_mb=0.5, seed=7
            ),
        ),
        TenantSpec(
            name="bravo",
            mode="roadrunner-user",
            weight=1,
            arrivals=PoissonArrivals(
                rate_rps=20, duration_s=12, function="bravo", payload_mb=0.5, seed=11
            ),
        ),
    ]


def _run(**overrides):
    kwargs = dict(nodes=2, node_memory_mb=60.0)
    kwargs.update(overrides)
    engine = MultiTenantTrafficEngine(_tenants(), config=TrafficConfig(**kwargs))
    summary = engine.run()
    return engine, summary


# -- the model itself -----------------------------------------------------------------


def test_node_memory_model_tracks_pressure_and_inflation():
    model = NodeMemoryModel(budget_mb=100.0, knee=0.8, slope=2.0)
    model.allocate("n0", 40.0)
    model.allocate("n0", 40.0)
    assert model.used_mb("n0") == pytest.approx(80.0)
    assert model.pressure("n0") == pytest.approx(0.8)
    assert model.inflation("n0") == pytest.approx(1.0)  # exactly at the knee
    model.allocate("n0", 30.0)
    assert model.over_budget("n0")
    # At 110% of budget with slope 2 over a 0.8 knee: 1 + 2*(1.1-0.8)/0.2 = 4.
    assert model.inflation("n0") == pytest.approx(4.0)
    model.free("n0", 70.0)
    assert model.used_mb("n0") == pytest.approx(40.0)
    assert not model.over_budget("n0")
    assert model.inflation("n0") == pytest.approx(1.0)


def test_node_memory_model_validates_parameters():
    with pytest.raises(MemoryModelError):
        NodeMemoryModel(budget_mb=0.0)
    with pytest.raises(MemoryModelError):
        NodeMemoryModel(budget_mb=10.0, knee=1.0)
    with pytest.raises(MemoryModelError):
        NodeMemoryModel(budget_mb=10.0, slope=-1.0)


def test_default_rss_follows_the_runtime_profile():
    runc = default_replica_rss_mb("runc-http", DEFAULT_COST_MODEL)
    wasm = default_replica_rss_mb("roadrunner-user", DEFAULT_COST_MODEL)
    assert runc == DEFAULT_COST_MODEL.container_baseline_rss_mb
    assert wasm == DEFAULT_COST_MODEL.wasm_baseline_rss_mb
    assert runc > wasm  # the density argument: containers cost more to park


def test_traffic_config_validates_memory_knobs():
    with pytest.raises(TrafficEngineError):
        TrafficConfig(node_memory_mb=-1.0)
    with pytest.raises(TrafficEngineError):
        TrafficConfig(replica_rss_mb=0.0)
    with pytest.raises(TrafficEngineError):
        TrafficConfig(pressure_knee=1.0)
    with pytest.raises(TrafficEngineError):
        TrafficConfig(pressure_slope=-0.5)
    assert not TrafficConfig().memory_enabled
    assert TrafficConfig(node_memory_mb=64.0).memory_enabled


def test_tenant_spec_rss_override_parses_and_validates():
    spec = parse_tenants(
        json.dumps([{"name": "t", "mode": "runc-http", "rps": 1, "rss_mb": 64.0}])
    )[0]
    assert spec.rss_mb == pytest.approx(64.0)
    with pytest.raises(TenantError):
        TenantSpec(
            name="t",
            mode="runc-http",
            arrivals=PoissonArrivals(rate_rps=1, duration_s=1, function="t"),
            rss_mb=-1.0,
        )


# -- eviction under pressure ----------------------------------------------------------


def test_evictor_fires_and_forces_future_cold_starts():
    free_engine, free = _run(node_memory_mb=0.0)
    engine, pressured = _run()
    assert free.cluster.oom_evictions == 0
    assert not free_engine.evictions
    # Under a 60 MB budget the evictor reclaims idle replicas...
    assert pressured.cluster.oom_evictions > 0
    assert len(engine.evictions) == pressured.cluster.oom_evictions
    # ...and each victim's tenant must cold-start again to serve later load.
    assert pressured.cluster.cold_starts > free.cluster.cold_starts
    # Eviction log rows are (time, tenant, replica) in chronological order.
    times = [row[0] for row in engine.evictions]
    assert times == sorted(times)
    tenants = {row[1] for row in engine.evictions}
    assert tenants <= {"alpha", "bravo"}


def test_pressure_inflates_observed_latency():
    _, free = _run(node_memory_mb=0.0)
    _, pressured = _run(pressure_slope=3.0)
    assert pressured.cluster.latency.p99_s >= free.cluster.latency.p99_s
    assert pressured.cluster.latency.mean_s > free.cluster.latency.mean_s


def test_memory_run_reports_rss_and_cpu_per_1k():
    _, pressured = _run()
    cluster = pressured.cluster
    assert cluster.rss_mb_seconds > 0.0
    assert cluster.cpu_seconds > 0.0
    assert cluster.rss_mb_per_1k == pytest.approx(
        cluster.rss_mb_seconds * 1000.0 / cluster.served
    )
    assert cluster.cpu_seconds_per_1k == pytest.approx(
        cluster.cpu_seconds * 1000.0 / cluster.served
    )
    # The per-tenant rows add up to the cluster rollup.
    assert sum(s.rss_mb_seconds for s in pressured.tenants.values()) == pytest.approx(
        cluster.rss_mb_seconds
    )


def test_zero_served_normalises_to_zero():
    empty = summarize("idle", "poisson", 1.0, [], rss_mb_seconds=5.0, cpu_seconds=5.0)
    assert empty.served == 0
    assert empty.rss_mb_per_1k == 0.0
    assert empty.cpu_seconds_per_1k == 0.0


# -- determinism ----------------------------------------------------------------------


def test_identical_seeds_reproduce_the_eviction_order():
    first_engine, first = _run()
    second_engine, second = _run()
    assert first_engine.evictions  # the scenario actually evicts
    assert first_engine.evictions == second_engine.evictions
    assert first.tenants == second.tenants
    assert first.cluster == second.cluster


# -- reporting and export -------------------------------------------------------------


def test_report_shows_memory_columns_only_when_the_model_ran():
    _, free = _run(node_memory_mb=0.0)
    _, pressured = _run()
    plain = render_summary_table(dict(free.tenants, cluster=free.cluster))
    memory = render_summary_table(dict(pressured.tenants, cluster=pressured.cluster))
    assert "RSS-MB/1k" not in plain and "evicted" not in plain
    assert "RSS-MB/1k" in memory and "CPU-s/1k" in memory and "evicted" in memory


def _strip_timeline(results):
    """Figures carry scalar series, not timelines: drop them for comparison."""
    return {
        name: dataclasses.replace(summary, replica_timeline=())
        for name, summary in results.items()
    }


def test_memory_series_round_trip_through_figures():
    _, pressured = _run()
    results = _strip_timeline(dict(pressured.tenants, cluster=pressured.cluster))
    figure = traffic_to_figure(results)
    assert "memory" in figure.panels
    assert traffic_from_figure(figure) == results
    assert traffic_from_figure(figure_from_csv(figure_to_csv(figure))) == results
    assert traffic_from_figure(figure_from_json(figure_to_json(figure))) == results


def test_memory_free_figures_carry_no_memory_panel():
    _, free = _run(node_memory_mb=0.0)
    results = _strip_timeline(dict(free.tenants, cluster=free.cluster))
    figure = traffic_to_figure(results)
    assert "memory" not in figure.panels
    assert traffic_from_figure(figure) == results
