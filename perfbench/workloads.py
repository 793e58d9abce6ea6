"""The benchmark's three workloads, generated from one seed.

Every workload is open-loop in simulated time: arrivals are generated up
front and scheduled whatever the backlog, so an overloaded cluster shows up
as queueing delay and timeouts instead of a slower arrival stream.  Each
runs in one process on one thread (no ``parallel_nodes``, no process pool).

A workload goes through three host-timed phases, which :mod:`perfbench.repeat`
times from outside:

* :meth:`Workload.setup` — arrival generation, request shaping (payload
  sizes, scheduling classes) and engine construction;
* :meth:`Workload.execute` — the engine's ``run()``;
* :meth:`Workload.report` — report rendering and exports.

The engines receive only the generated requests (``TenantSpec.requests``);
every tenant, region and payload-size seed derives from the one ``--seed``.
``scale`` stretches simulated duration (1.0 is the benchmark size; the
benchmark's own tests run at a few percent of it through the same code).
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.gateway.middleware import build_pipeline
from repro.metrics.stats import p50, p99
from repro.obs.exporters import JsonlEventWriter, render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import TraceLog
from repro.obs.telemetry import Telemetry
from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.traffic.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    Request,
)
from repro.traffic.autoscaler import (
    Autoscaler,
    FixedReplicasPolicy,
    TargetConcurrencyPolicy,
)
from repro.traffic.classes import RequestClass, assign_classes
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
from repro.traffic.report import (
    render_federation_report,
    render_multi_tenant_report,
    render_traffic_report,
)
from repro.traffic.slo import SERVED_OUTCOMES, RequestOutcome, TrafficSummary
from repro.traffic.tenants import TenantSpec, derived_seed

MB = 1024 * 1024


def _failures(summary: TrafficSummary) -> int:
    return (
        summary.timed_out
        + summary.dropped
        + summary.shed
        + summary.rate_limited
        + summary.rejected
    )


def conservation_problems(label: str, summary: TrafficSummary) -> List[str]:
    """Offered must equal served plus every failure outcome."""
    accounted = summary.served + _failures(summary)
    if accounted != summary.offered:
        return [
            "%s: offered %d != served %d + failed %d"
            % (label, summary.offered, summary.served, _failures(summary))
        ]
    return []


def summary_digest(summary: object) -> str:
    """SHA-256 of the simulated summary's repr (floats print round-trip exact)."""
    return hashlib.sha256(repr(summary).encode("utf-8")).hexdigest()


def _shape(
    requests: Sequence[Request],
    sizes: Sequence[int],
    weights: Sequence[float],
    seed: int,
) -> List[Request]:
    """Re-draw each request's payload size from a seeded weighted choice."""
    rng = random.Random(seed)
    drawn = rng.choices(sizes, weights=weights, k=len(requests))
    return [
        Request(
            request_id=request.request_id,
            arrival_s=request.arrival_s,
            function=request.function,
            payload_bytes=payload,
        )
        for request, payload in zip(requests, drawn)
    ]


@dataclass
class Facts:
    """Modelled per-layer figures one run produced (read after ``run()``)."""

    cold_starts: int = 0
    cold_start_s: float = 0.0
    max_replicas: int = 0
    evictions: int = 0
    wait_p99_ms: float = 0.0
    calibrations: int = 0
    cache_hit_ratio: float = 0.0
    coalesced: int = 0
    hedges: int = 0
    spillovers: int = 0
    failovers: int = 0
    remote_ratio: float = 0.0
    wan_mb: float = 0.0
    events_written: int = 0
    bytes_written: int = 0
    inflated: int = 0


class Workload:
    """One named workload: seeded inputs, an engine, checks and figures."""

    name = "abstract"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.seed = seed
        self.scale = scale
        #: The (mode, payload) -> service time cache handed to the engine:
        #: after the run its size is the number of data-path calibrations.
        self.service_cache: Dict[Tuple[str, int], float] = {}
        self.offered = 0
        self.engine = None
        #: Host seconds of telemetry exports in :meth:`report` (0 without any).
        self.export_s = 0.0

    def sub_seed(self, label: str) -> int:
        return derived_seed(self.seed, "%s/%s" % (self.name, label))

    # -- phases ----------------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self):
        return self.engine.run()

    def report(self, summary) -> str:
        raise NotImplementedError

    # -- results ---------------------------------------------------------------------

    def cluster(self, summary) -> TrafficSummary:
        """The rollup whose latency and failures are the end-to-end figures."""
        return summary.cluster

    def modelled(self, summary) -> Dict[str, float]:
        cluster = self.cluster(summary)
        return {
            "model_p50_ms": cluster.latency.p50_s * 1000.0,
            "model_p99_ms": cluster.latency.p99_s * 1000.0,
            "latency_samples": cluster.latency.count,
            "served_frac": cluster.served / cluster.offered,
            "failed_frac": _failures(cluster) / cluster.offered,
            "offered": cluster.offered,
        }

    def facts(self, summary) -> Facts:
        raise NotImplementedError

    def problems(self, summary, facts: Facts) -> List[str]:
        """Correctness checks; empty when all hold."""
        raise NotImplementedError

    def shape_problems(self, summary, facts: Facts) -> List[str]:
        """Guards that the workload still exercises its layers (full size only)."""
        raise NotImplementedError

    def _multi_tenant_problems(self, label: str, summary) -> List[str]:
        out: List[str] = []
        for name, tenant in summary.tenants.items():
            out += conservation_problems("%s/%s" % (label, name), tenant)
        out += conservation_problems("%s/cluster" % label, summary.cluster)
        if sum(t.offered for t in summary.tenants.values()) != summary.cluster.offered:
            out.append("%s: tenant offered counts do not sum to the cluster's" % label)
        return out


class Steady(Workload):
    """One Poisson tenant on 16 pinned replicas in sketch mode.

    The shape of ``benchmarks/test_throughput.py`` (2000 rps, 4 nodes, 16
    replicas at concurrency 4) at a smaller request count.  The payload is
    0.25 MB give or take 2%, drawn from the seed, so the run's one
    service-time calibration is of a size other seeds do not share.
    """

    name = "steady"
    RATE_RPS = 2000.0
    DURATION_S = 40.0

    def setup(self) -> None:
        rng = random.Random(self.sub_seed("payload"))
        payload_mb = 0.25 * (1.0 + rng.uniform(-0.02, 0.02))
        requests = PoissonArrivals(
            rate_rps=self.RATE_RPS,
            duration_s=self.DURATION_S * self.scale,
            function="app",
            payload_mb=payload_mb,
            seed=self.sub_seed("arrivals"),
        ).generate()
        self.offered = len(requests)
        tenant = TenantSpec(
            name="tenant-1",
            mode="roadrunner-user",
            requests=tuple(requests),
            function="app",
            pattern="poisson",
        )
        autoscaler = Autoscaler(FixedReplicasPolicy(16), min_replicas=16, max_replicas=16)
        # The single-tenant engine's own construction (FIFO, no
        # oversubscription), with the service cache owned here.
        self.engine = MultiTenantTrafficEngine(
            [tenant],
            config=TrafficConfig(
                nodes=4,
                per_replica_concurrency=4,
                initial_replicas=16,
                retain_records=False,
                queue_timeout_s=5.0,
            ),
            fairness=FairnessPolicy.FIFO,
            autoscaler_factory=lambda: autoscaler,
            oversubscription=1.0,
            service_cache=self.service_cache,
        )

    def cluster(self, summary) -> TrafficSummary:
        return summary.tenants["tenant-1"]

    def report(self, summary) -> str:
        return render_traffic_report({"roadrunner-user": self.cluster(summary)})

    def facts(self, summary) -> Facts:
        tenant = self.cluster(summary)
        return Facts(
            cold_starts=tenant.cold_starts,
            cold_start_s=tenant.cold_start_seconds,
            max_replicas=tenant.max_replicas,
            wait_p99_ms=tenant.queueing.p99_s * 1000.0,
            calibrations=len(self.service_cache),
        )

    def problems(self, summary, facts: Facts) -> List[str]:
        tenant = self.cluster(summary)
        out = conservation_problems("steady", tenant)
        if tenant.offered != self.offered:
            out.append("steady: offered %d != generated %d" % (tenant.offered, self.offered))
        return out

    def shape_problems(self, summary, facts: Facts) -> List[str]:
        tenant = self.cluster(summary)
        out = []
        if tenant.timed_out or tenant.dropped:
            out.append("steady shape: %d timeouts, %d drops" % (tenant.timed_out, tenant.dropped))
        if tenant.queueing.p99_s > 0.0:
            out.append("steady shape: queue built up (queueing p99 %.6fs)" % tenant.queueing.p99_s)
        if facts.calibrations != 1:
            out.append("steady shape: %d calibrations, expected 1" % facts.calibrations)
        return out


#: Contended tenants: (name, mode, arrival kind, rate, payload sizes in KB).
#: Service times are discrete per (mode, size), so the cluster median is
#: only stable across seeds inside one tenant's mode: at these rates it
#: falls inside runc's smallest-payload mode rather than between tenants.
_CONTENDED_TENANTS = (
    ("rr-user", "roadrunner-user", "poisson", 2100.0, (16, 64, 256, 1024)),
    ("rr-kernel", "roadrunner-kernel", "bursty", 3000.0, (32, 128, 512, 2048)),
    ("runc", "runc-http", "diurnal", 2500.0, (8, 64, 256, 1024)),
    ("wasmedge", "wasmedge-http", "poisson", 1000.0, (4, 32, 128, 512)),
)

#: One hard-deadline class (shed when unmeetable) beside a deadline-free one.
_CONTENDED_CLASSES = (
    RequestClass("interactive", share=0.3, priority=0, deadline_s=0.5, hard=True),
    RequestClass("batch", share=0.7, priority=1),
)


class Contended(Workload):
    """Four tenants near saturation on one 16-node cluster.

    Weighted fair queueing by measured cost, EDF within each tenant,
    target-concurrency autoscaling with a short keep-alive, a memory budget
    that inflates service times, and retained records (exact percentiles).
    """

    name = "contended"
    DURATION_S = 8.0
    NODE_MEMORY_MB = 144.0

    def _arrivals(self, name: str, kind: str, rate: float, duration: float):
        seed = self.sub_seed("%s/arrivals" % name)
        if kind == "bursty":
            return BurstyArrivals(
                on_rate_rps=rate, duration_s=duration, on_s=3.0, off_s=3.0,
                function=name, seed=seed,
            )
        if kind == "diurnal":
            return DiurnalArrivals(
                peak_rps=rate, trough_rps=rate / 6.0, duration_s=duration,
                period_s=self.DURATION_S, function=name, seed=seed,
            )
        return PoissonArrivals(rate_rps=rate, duration_s=duration, function=name, seed=seed)

    def setup(self) -> None:
        duration = self.DURATION_S * self.scale
        tenants = []
        self.payloads: Dict[str, Dict[int, int]] = {}
        for name, mode, kind, rate, sizes_kb in _CONTENDED_TENANTS:
            base = self._arrivals(name, kind, rate, duration).generate()
            # Smaller payloads are more common.  Each size moves by up to 2%
            # with the seed, so the service times are the seed's own while
            # the mix stays the same under every seed.
            rng = random.Random(self.sub_seed("%s/sizes" % name))
            sizes = [int(kb * 1024 * (1.0 + rng.uniform(-0.02, 0.02))) for kb in sizes_kb]
            weights = [len(sizes_kb) - rank for rank in range(len(sizes_kb))]
            stream = _shape(base, sizes, weights, self.sub_seed("%s/draw" % name))
            stream = assign_classes(
                stream, _CONTENDED_CLASSES, seed=self.sub_seed("%s/classes" % name)
            )
            self.payloads[name] = {r.request_id: r.payload_bytes for r in stream}
            tenants.append(
                TenantSpec(name=name, mode=mode, requests=tuple(stream), pattern=kind)
            )
        self.offered = sum(len(tenant.requests) for tenant in tenants)
        self.engine = MultiTenantTrafficEngine(
            tenants,
            config=TrafficConfig(
                nodes=16,
                per_replica_concurrency=1,
                initial_replicas=2,
                queue_timeout_s=1.0,
                retain_records=True,
                node_memory_mb=self.NODE_MEMORY_MB,
            ),
            fairness=FairnessPolicy.WFQ_COST,
            intra=IntraTenantOrder.EDF,
            autoscaler_factory=lambda: Autoscaler(
                TargetConcurrencyPolicy(1.0), max_replicas=64, keep_alive_s=2.0
            ),
            service_cache=self.service_cache,
        )

    def report(self, summary) -> str:
        return render_multi_tenant_report(summary)

    def _inflated(self) -> int:
        """Completions slower than the fastest of their (tenant, payload).

        Without hedging, a completion's service time is its calibrated
        service time times the memory model's inflation, so any completion
        above the minimum of its group was inflated by memory pressure.
        """
        inflated = 0
        for tenant, records in self.engine.records.items():
            payloads = self.payloads[tenant]
            fastest: Dict[int, float] = {}
            services = []
            for record in records:
                if record.outcome is RequestOutcome.COMPLETED:
                    payload = payloads[record.request_id]
                    service = record.service_s
                    services.append((payload, service))
                    if service < fastest.get(payload, float("inf")):
                        fastest[payload] = service
            inflated += sum(
                1 for payload, service in services if service > fastest[payload] * (1 + 1e-9)
            )
        return inflated

    def facts(self, summary) -> Facts:
        cluster = summary.cluster
        return Facts(
            cold_starts=cluster.cold_starts,
            cold_start_s=cluster.cold_start_seconds,
            max_replicas=cluster.max_replicas,
            evictions=cluster.oom_evictions,
            wait_p99_ms=cluster.queueing.p99_s * 1000.0,
            calibrations=len(self.service_cache),
            inflated=self._inflated(),
        )

    def problems(self, summary, facts: Facts) -> List[str]:
        out = self._multi_tenant_problems("contended", summary)
        cluster = summary.cluster
        if cluster.offered != self.offered:
            out.append("contended: offered %d != generated %d" % (cluster.offered, self.offered))
        return out

    def shape_problems(self, summary, facts: Facts) -> List[str]:
        cluster = summary.cluster
        out = []
        initial = 2 * len(summary.tenants)
        if cluster.timed_out == 0:
            out.append("contended shape: no timeouts")
        if facts.wait_p99_ms <= 0.0:
            out.append("contended shape: no queueing")
        if cluster.cold_starts <= initial:
            out.append("contended shape: no scale-ups beyond the initial pools")
        if facts.inflated == 0:
            out.append("contended shape: memory pressure never inflated a service time")
        return out


_SERVED = frozenset(outcome.value for outcome in SERVED_OUTCOMES)

#: Federated regions, each home to one tenant: (region, tenant, mode).
_FEDERATED_REGIONS = (
    ("us-east", "shop", "roadrunner-user"),
    ("eu-west", "media", "roadrunner-kernel"),
    ("ap-south", "search", "wasmedge-http"),
)


class Federated(Workload):
    """Three WAN-linked regions with staggered diurnal load and one failure.

    The ``locality`` router, the ``cache,coalesce,hedge`` middleware, full
    telemetry (a shared registry, a trace log and JSONL written to in-memory
    handles, Prometheus rendered at the end) and sketch accounting.  Each
    tenant draws payload sizes Zipf-weighted from thousands of distinct
    sizes, so the data path calibrates thousands of (mode, payload) pairs.
    """

    name = "federated"
    DURATION_S = 30.0
    PEAK_RPS = 450.0
    TROUGH_RPS = 60.0
    NODES_PER_REGION = 4
    DISTINCT_SIZES = 3000
    ZIPF_S = 0.9
    CACHE_TTL_S = 0.5
    HEDGE_BUDGET_S = 0.05
    FAILED_REGION = "eu-west"

    def setup(self) -> None:
        duration = self.DURATION_S * self.scale
        period = duration
        tenants = []
        for index, (region, name, mode) in enumerate(_FEDERATED_REGIONS):
            base = DiurnalArrivals(
                peak_rps=self.PEAK_RPS,
                trough_rps=self.TROUGH_RPS,
                duration_s=duration,
                period_s=period,
                phase_s=period * index / len(_FEDERATED_REGIONS),
                function=name,
                seed=self.sub_seed("%s/arrivals" % name),
            ).generate()
            # Distinct sizes are seeded, but popularity falls with size
            # (Zipf over ascending sizes), so every seed sees the same mix.
            rng = random.Random(self.sub_seed("%s/sizes" % name))
            sizes = sorted(rng.sample(range(4 * 1024, MB), self.DISTINCT_SIZES))
            weights = [1.0 / rank ** self.ZIPF_S for rank in range(1, len(sizes) + 1)]
            stream = _shape(base, sizes, weights, self.sub_seed("%s/draw" % name))
            tenants.append(
                TenantSpec(name=name, mode=mode, requests=tuple(stream), pattern="diurnal")
            )
        self.offered = sum(len(tenant.requests) for tenant in tenants)
        self.registry = MetricsRegistry()
        self.handles: Dict[str, io.StringIO] = {}
        self.telemetries: Dict[str, Telemetry] = {}

        def telemetry_for(region: str) -> Telemetry:
            handle = self.handles[region] = io.StringIO()
            telemetry = Telemetry(
                registry=self.registry,
                trace_log=TraceLog(),
                events=JsonlEventWriter(handle),
                region=region,
            )
            self.telemetries[region] = telemetry
            return telemetry

        hedge_seed = self.sub_seed("hedge")
        self.engine = FederatedTrafficEngine(
            tenants,
            [
                ClusterSpec(region=region, nodes=self.NODES_PER_REGION, tenants=(name,))
                for region, name, _ in _FEDERATED_REGIONS
            ],
            config=TrafficConfig(
                per_replica_concurrency=4,
                initial_replicas=8,
                queue_timeout_s=5.0,
                retain_records=False,
            ),
            autoscaler_factory=lambda: Autoscaler(
                TargetConcurrencyPolicy(2.0), max_replicas=32, keep_alive_s=10.0
            ),
            router="locality",
            router_seed=self.sub_seed("router"),
            telemetry_factory=telemetry_for,
            middleware_factory=lambda region: build_pipeline(
                ["cache", "coalesce", "hedge"],
                cache_ttl_s=self.CACHE_TTL_S,
                hedge_budget_s=self.HEDGE_BUDGET_S,
                hedge_seed=hedge_seed,
            ),
            fail_at={self.FAILED_REGION: duration / 3.0},
            service_cache=self.service_cache,
        )

    def report(self, summary) -> str:
        text = render_federation_report(summary)
        start = time.perf_counter()
        self.prometheus = render_prometheus(self.registry)
        self.jsonl = {region: handle.getvalue() for region, handle in self.handles.items()}
        self.export_s = time.perf_counter() - start
        return text + self.prometheus

    def modelled(self, summary) -> Dict[str, float]:
        """Exact percentiles over the trace logs' served requests.

        The run accounts in sketch mode, whose latency quantiles are
        log-histogram bucket values; the trace logs hold every request.
        """
        figures = super().modelled(summary)
        latencies = [
            trace.total_s
            for telemetry in self.telemetries.values()
            for trace in telemetry.trace_log
            if trace.outcome in _SERVED
        ]
        figures["model_p50_ms"] = p50(latencies) * 1000.0
        figures["model_p99_ms"] = p99(latencies) * 1000.0
        figures["latency_samples"] = len(latencies)
        return figures

    def facts(self, summary) -> Facts:
        router = summary.router
        hits = misses = fired = 0
        for region in summary.regions.values():
            cache = region.middleware.get("cache", {})
            hits += cache.get("hits", 0)
            misses += cache.get("misses", 0)
            fired += region.middleware.get("hedge", {}).get("fired", 0)
        placed = router.local + router.remote
        return Facts(
            cold_starts=summary.cluster.cold_starts,
            cold_start_s=summary.cluster.cold_start_seconds,
            max_replicas=summary.cluster.max_replicas,
            evictions=summary.cluster.oom_evictions,
            wait_p99_ms=summary.cluster.queueing.p99_s * 1000.0,
            calibrations=len(self.service_cache),
            cache_hit_ratio=hits / (hits + misses) if hits + misses else 0.0,
            coalesced=summary.cluster.coalesced,
            hedges=fired,
            spillovers=router.spillovers,
            failovers=router.failovers,
            remote_ratio=router.remote / placed if placed else 0.0,
            wan_mb=router.wan_bytes / MB,
            events_written=sum(
                t.events.events_written for t in self.telemetries.values()
            ),
            bytes_written=sum(len(text.encode("utf-8")) for text in self.jsonl.values()),
        )

    def problems(self, summary, facts: Facts) -> List[str]:
        out: List[str] = []
        for region, region_summary in summary.regions.items():
            out += self._multi_tenant_problems("federated/%s" % region, region_summary)
        for name, tenant in summary.tenants.items():
            out += conservation_problems("federated/global/%s" % name, tenant)
        out += conservation_problems("federated/global", summary.cluster)
        if summary.cluster.offered != self.offered:
            out.append(
                "federated: offered %d != generated %d" % (summary.cluster.offered, self.offered)
            )
        region_offered = sum(r.cluster.offered for r in summary.regions.values())
        if region_offered != self.offered:
            out.append("federated: regions account %d of %d requests" % (region_offered, self.offered))
        placed = sum(summary.router.placements.values())
        if placed != self.offered:
            out.append("federated: router placed %d of %d requests" % (placed, self.offered))
        return out

    def shape_problems(self, summary, facts: Facts) -> List[str]:
        out = []
        if summary.failed_regions != (self.FAILED_REGION,):
            out.append("federated shape: failed regions %r" % (summary.failed_regions,))
        if facts.spillovers <= 0:
            out.append("federated shape: no spillovers")
        if not 0.0 < facts.cache_hit_ratio < 1.0:
            out.append("federated shape: cache hit ratio %.3f" % facts.cache_hit_ratio)
        if facts.calibrations < 1000:
            out.append("federated shape: only %d calibrations" % facts.calibrations)
        if facts.events_written <= 0:
            out.append("federated shape: telemetry wrote no events")
        return out


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (Steady, Contended, Federated)
}
