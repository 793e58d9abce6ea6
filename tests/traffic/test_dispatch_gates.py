"""Capacity-gated dispatch: pinned outputs and the counters behind the gates.

``ClusterRuntime.dispatch`` skips work that provably cannot place a
request: it returns at once while no node has a free core, skips the fair
order walk unless a backlogged tenant has a ready replica slot to spare,
and skips a tenant's replica scan when its in-flight count fills every
ready slot.  Each gate is an exact necessary condition for the scan's own
candidate test, so a gated run must reproduce the ungated one bit for bit.

Two kinds of check:

* **Pins.**  Each run's ``sha256(repr(summary))`` was recorded with the
  ungated dispatch: every perfbench workload at a tenth of its size for
  seeds 7 and 11 (and ``contended`` at seed 23), plus one small run per
  edge case the gates must get right.  ``sum`` became compensated in
  Python 3.12, which moves the summaries' last float bits, and these
  digests exist only for the uncompensated side.
* **Invariants.**  At every terminal record, each tenant's in-flight count
  equals the gateway's pool total, and once promoted at the current
  instant its ready-slot count equals ``per_replica_concurrency`` times
  the replicas whose warm-up has ended.  The edge-case runs also show that
  their case really happens.
"""

import functools
import hashlib
import sys
from typing import Dict, List, Tuple

import pytest

from perfbench.workloads import WORKLOADS
from repro.gateway.middleware import MiddlewarePipeline, build_pipeline
from repro.platform.gateway import FairnessPolicy, IngressGateway
from repro.traffic import engine as engine_module
from repro.traffic import federation as federation_module
from repro.traffic.arrivals import PoissonArrivals, Request
from repro.traffic.autoscaler import (
    Autoscaler,
    FixedReplicasPolicy,
    TargetConcurrencyPolicy,
)
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
from repro.traffic.tenants import TenantSpec

_COMPENSATED_SUM = sys.version_info >= (3, 12)

#: Fraction of each perfbench workload's simulated duration run here.
SCALE = 0.1


def _digest(summary) -> str:
    return hashlib.sha256(repr(summary).encode("utf-8")).hexdigest()


class _Observed:
    """What one instrumented run saw, beyond its summary."""

    def __init__(self) -> None:
        self.runtimes: List[object] = []
        self.checks = 0
        #: Hedges whose primary and backup landed on one node that had a
        #: single free core, leaving the node one request past its cores.
        self.overfull_hedges = 0
        self.max_replica_in_flight = 0
        self._pending_hedge = 0
        self._primary = None


def _check_invariants(runtime) -> None:
    now = runtime.loop.now
    limit = runtime.config.per_replica_concurrency
    gateway = runtime.gateway
    for state in runtime.states:
        pool_total = gateway.total_in_flight(state.function) if state.replicas else 0
        assert state.in_flight == pool_total, (state.name, now)
        runtime.promote(state, now)
        ready = sum(1 for replica in state.replicas if replica.ready_at <= now)
        assert state.ready_slots == limit * ready, (state.name, now)


def _node_busy(gateway, node: str) -> int:
    return sum(
        replica_state.in_flight
        for replica_states in gateway._pools.values()
        for replica_state in replica_states
        if replica_state.deployed.node_name == node
    )


def _instrument(monkeypatch, observed: _Observed, check: bool) -> None:
    """Wrap runtime construction, replica selection and dispatch planning."""
    originals = {
        module: module.ClusterRuntime for module in (engine_module, federation_module)
    }

    def factory(module):
        def build(**kwargs):
            inner = kwargs.pop("on_record", None)
            holder = []

            def on_record(record):
                if inner is not None:
                    inner(record)
                if check:
                    _check_invariants(holder[0])
                    observed.checks += 1

            runtime = originals[module](on_record=on_record, **kwargs)
            holder.append(runtime)
            observed.runtimes.append(runtime)
            return runtime

        return build

    for module in originals:
        monkeypatch.setattr(module, "ClusterRuntime", factory(module))

    plan_dispatch = MiddlewarePipeline.plan_dispatch
    select_replica = IngressGateway.select_replica

    def planned(self, ctx, now, service_s, spare_replica):
        plan = plan_dispatch(self, ctx, now, service_s, spare_replica)
        if plan.hedged:
            # The runtime selects the primary, then the backup, next.
            observed._pending_hedge = 2
        return plan

    def selected(self, function, candidates):
        chosen = select_replica(self, function, candidates)
        observed.max_replica_in_flight = max(observed.max_replica_in_flight, chosen.in_flight)
        if observed._pending_hedge == 2:
            observed._primary = chosen
        elif observed._pending_hedge == 1:
            node = chosen.deployed.node_name
            if observed._primary.deployed.node_name == node:
                cores = self.orchestrator.cluster.node(node).cores
                if _node_busy(self, node) > cores:
                    observed.overfull_hedges += 1
        if observed._pending_hedge:
            observed._pending_hedge -= 1
        return chosen

    monkeypatch.setattr(MiddlewarePipeline, "plan_dispatch", planned)
    monkeypatch.setattr(IngressGateway, "select_replica", selected)


# -- edge-case scenarios ----------------------------------------------------------


def _poisson(name: str, mode: str, rate: float, duration: float, payload_mb: float, seed: int):
    return TenantSpec(
        name=name,
        mode=mode,
        arrivals=PoissonArrivals(
            rate_rps=rate, duration_s=duration, payload_mb=payload_mb, seed=seed
        ),
    )


def _hedged_same_node():
    """Hedges on a 2-node cluster with 4 slots per replica.

    Primary and backup often share a node; when that node had one free
    core, the pair leaves it one request past its cores.
    """
    return MultiTenantTrafficEngine(
        [
            _poisson("shop", "roadrunner-user", 900.0, 3.0, 0.5, 21),
            _poisson("media", "roadrunner-kernel", 700.0, 3.0, 1.0, 22),
        ],
        config=TrafficConfig(nodes=2, per_replica_concurrency=4, initial_replicas=3,
                             queue_timeout_s=1.0),
        autoscaler_factory=lambda: Autoscaler(
            TargetConcurrencyPolicy(2.0), max_replicas=6, keep_alive_s=2.0
        ),
        middleware=build_pipeline(
            ["hedge"], hedge_budget_s=0.002, hedge_straggler_prob=0.3, hedge_seed=3
        ),
    )


def _oversubscribed():
    """Replica slots at twice the cores, four requests per replica."""
    return MultiTenantTrafficEngine(
        [
            _poisson("rr-user", "roadrunner-user", 1500.0, 3.0, 0.5, 31),
            _poisson("runc", "runc-http", 400.0, 3.0, 0.25, 32),
            _poisson("wasmedge", "wasmedge-http", 300.0, 3.0, 0.25, 33),
        ],
        config=TrafficConfig(nodes=2, per_replica_concurrency=4, initial_replicas=1,
                             queue_timeout_s=0.5),
        fairness=FairnessPolicy.WFQ_COST,
        autoscaler_factory=lambda: Autoscaler(
            TargetConcurrencyPolicy(1.0), max_replicas=8, keep_alive_s=1.0
        ),
        oversubscription=2.0,
    )


def _warming_requests(instants: Tuple[float, ...]) -> Dict[str, Tuple[Request, ...]]:
    """Per tenant: a backlog arriving before any replica is warm, a later
    stretch, and one arrival at exactly each given warm-up instant."""
    out = {}
    for name, gap in (("fast", 0.001), ("slow", 0.0015)):
        backlog = [gap * i for i in range(60)]
        later = [0.2 + gap * i for i in range(40)]
        times = sorted(backlog + list(instants) + later)
        out[name] = tuple(
            Request(request_id=i, arrival_s=t, function=name, payload_bytes=256 * 1024)
            for i, t in enumerate(times)
        )
    return out


def _warming_engine(requests: Dict[str, Tuple[Request, ...]]):
    return MultiTenantTrafficEngine(
        [
            TenantSpec(name="fast", mode="roadrunner-user", requests=requests["fast"]),
            TenantSpec(name="slow", mode="wasmedge-http", requests=requests["slow"]),
        ],
        config=TrafficConfig(nodes=2, per_replica_concurrency=2, initial_replicas=1,
                             queue_timeout_s=2.0),
        autoscaler_factory=lambda: Autoscaler(
            FixedReplicasPolicy(3), min_replicas=1, max_replicas=3, control_interval_s=0.05
        ),
    )


@functools.lru_cache(maxsize=None)
def _warm_up_instants() -> Tuple[float, ...]:
    """Every replica's warm-up instant in the backlog-only run.

    Fixed-size pools make them independent of the extra arrivals, which
    the scenario then places exactly on them.
    """
    observed = _Observed()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _instrument(monkeypatch, observed, check=False)
        _warming_engine(_warming_requests(())).run()
    (runtime,) = observed.runtimes
    return tuple(sorted({r.ready_at for state in runtime.states for r in state.replicas}))


def _warming_backlog():
    """A backlog waiting on warming replicas, with arrivals at warm-up instants.

    The initial replicas' warm-up events were scheduled before any arrival
    and fire first at their instant; the scaled-up replicas' events were
    scheduled after every arrival's slot, so the arrival fires first.
    """
    return _warming_engine(_warming_requests(_warm_up_instants()))


def _evicting():
    """Three tenants scaling up on nodes whose memory budget fits few replicas."""
    return MultiTenantTrafficEngine(
        [
            _poisson("rr-user", "roadrunner-user", 1200.0, 3.0, 0.5, 41),
            _poisson("runc", "runc-http", 300.0, 3.0, 0.25, 42),
            _poisson("wasmedge", "wasmedge-http", 250.0, 3.0, 0.25, 43),
        ],
        config=TrafficConfig(nodes=2, initial_replicas=2, queue_timeout_s=0.5,
                             node_memory_mb=96.0),
        fairness=FairnessPolicy.WFQ_COST,
        autoscaler_factory=lambda: Autoscaler(
            TargetConcurrencyPolicy(1.0), max_replicas=8, keep_alive_s=0.5
        ),
    )


def _failed_region():
    """Two regions; one fails mid-run and its queue fails over."""
    return FederatedTrafficEngine(
        [
            _poisson("shop", "wasmedge-http", 300.0, 3.0, 0.5, 51),
            _poisson("media", "roadrunner-kernel", 600.0, 3.0, 1.0, 52),
        ],
        [
            ClusterSpec(region="eu-west", nodes=1, tenants=("shop",)),
            ClusterSpec(region="us-east", nodes=2, tenants=("media",)),
        ],
        config=TrafficConfig(per_replica_concurrency=2, initial_replicas=2,
                             queue_timeout_s=1.0),
        autoscaler_factory=lambda: Autoscaler(
            TargetConcurrencyPolicy(1.0), max_replicas=6, keep_alive_s=1.0
        ),
        fail_at={"eu-west": 1.5},
    )


SCENARIOS = {
    "hedged_same_node": _hedged_same_node,
    "oversubscribed": _oversubscribed,
    "warming_backlog": _warming_backlog,
    "evicting": _evicting,
    "failed_region": _failed_region,
}


@functools.lru_cache(maxsize=None)
def _run_scenario(name: str):
    observed = _Observed()
    with pytest.MonkeyPatch.context() as monkeypatch:
        engine = SCENARIOS[name]()
        _instrument(monkeypatch, observed, check=True)
        summary = engine.run()
    return engine, summary, observed


@functools.lru_cache(maxsize=None)
def _run_workload(name: str, seed: int):
    observed = _Observed()
    with pytest.MonkeyPatch.context() as monkeypatch:
        workload = WORKLOADS[name](seed, SCALE)
        workload.setup()
        _instrument(monkeypatch, observed, check=True)
        summary = workload.execute()
    return summary, observed


# -- pins -------------------------------------------------------------------------

SCENARIO_DIGESTS = {
    "hedged_same_node": "374597dd9a92dff94a00369aa09be490b5d28469e3c45e269c3d905d6688913e",
    "oversubscribed": "4ab8be2f7d48caa8918577f4bb6ccc8cb3393a16ec48efa802abc844eebde1e4",
    "warming_backlog": "fb00260a58ea73a66e8c68113d6f42b5a37dfdb5e3586c99e8c250a1225bec95",
    "evicting": "9242f5c5fa1e706b8cc9ea25bbd73a521b0f7b894d41496f0684eb9eaabd23f9",
    "failed_region": "8de909be4291a1850a7e9f7682a222d45c12c5d8e229d9db6c1ec472fc85ae5d",
}

WORKLOAD_DIGESTS = {
    ("steady", 7): "b196f2237c19973b8b47236dff3be80d1ab50ddfaeb496200e71554917104975",
    ("steady", 11): "81ebcd8ecad4696514e5dd86f978a8c3690d646b1b049f465b626419c0dbf044",
    ("contended", 7): "6ddb31799f364c65f3bf63aead9890b89edbfcc29c7e13a22739e69bcd845912",
    ("contended", 11): "b5436d6cb00293a059bcc894cbc8c4702014ffd1ad21f7f7d89a6b61a458bf25",
    ("contended", 23): "7bd7a553990e3f0bbe0b86edef21f074e197a337149454a1e729f798957b87a8",
    ("federated", 7): "eec05b825450e967fa035943bbdc16b234e7b8dbf337149b4be7325cf68d1eee",
    ("federated", 11): "f1ac2827dd5fed9c16e169315bf2422434b0088c408873edf0c9b0e764f967cd",
}

_pins = pytest.mark.skipif(
    _COMPENSATED_SUM, reason="digests recorded with the uncompensated sum() of Python < 3.12"
)


@_pins
@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_edge_case_run_matches_the_ungated_digest(name):
    _, summary, _ = _run_scenario(name)
    assert _digest(summary) == SCENARIO_DIGESTS[name]


@_pins
@pytest.mark.parametrize("name,seed", sorted(WORKLOAD_DIGESTS))
def test_workload_matches_the_ungated_digest(name, seed):
    summary, _ = _run_workload(name, seed)
    assert _digest(summary) == WORKLOAD_DIGESTS[(name, seed)]


# -- invariants and the cases themselves ------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tenant_counters_match_the_pools_at_every_record(name):
    _, summary, observed = _run_scenario(name)
    assert observed.checks == summary.cluster.offered


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tenant_counters_hold_on_each_workload(name):
    summary, observed = _run_workload(name, 7)
    assert observed.checks == summary.cluster.offered


def test_a_hedge_can_fill_one_node_past_its_cores():
    _, _, observed = _run_scenario("hedged_same_node")
    assert observed.overfull_hedges > 0


def test_oversubscribed_replicas_fill_to_their_concurrency():
    engine, _, observed = _run_scenario("oversubscribed")
    assert observed.max_replica_in_flight == engine.config.per_replica_concurrency


def test_arrivals_land_on_warm_up_instants_behind_a_backlog():
    engine, summary, observed = _run_scenario("warming_backlog")
    (runtime,) = observed.runtimes
    ready = {r.ready_at for state in runtime.states for r in state.replicas}
    arrivals = {r.arrival_s for records in engine.records.values() for r in records}
    initial = {r.ready_at for state in runtime.states for r in state.replicas if r.born_s == 0.0}
    assert initial & arrivals and (ready - initial) & arrivals
    assert summary.cluster.queueing.p99_s > 0.0


def test_memory_pressure_evicts_replicas():
    engine, _, _ = _run_scenario("evicting")
    assert engine.evictions


def test_a_region_fails_and_its_queue_fails_over():
    _, summary, _ = _run_scenario("failed_region")
    assert summary.failed_regions == ("eu-west",)
    assert summary.router.failovers > 0
