"""Regression pins for the hot-path rework's order-preserving helpers.

Three pieces of the throughput work changed *how* the engine computes
without being allowed to change *what* it computes:

* the runtime fills the shared service-time cache itself, measuring each
  (mode, payload) once however many regions or runs share the cache;
* ``_merge_timelines`` replaced a global sort with an N-way
  ``heapq.merge`` over the per-tenant step functions;
* ``_ordered_requests`` replaced the unconditional per-engine sort with a
  sortedness check, so ``run_comparison`` orders the stream once and every
  compared engine passes the same tuple through untouched.

Each test pins the new implementation against the behaviour (or a direct
reimplementation) of the code it replaced.
"""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import cluster_runtime
from repro.traffic.arrivals import MB, PoissonArrivals, Request
from repro.traffic.autoscaler import Autoscaler, FixedReplicasPolicy
from repro.traffic.engine import (
    TrafficConfig,
    TrafficEngine,
    _merge_timelines,
    _ordered_requests,
)
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
from repro.traffic.tenants import TenantSpec


# -- the runtime-owned service-time cache -----------------------------------------


def _tenant(name, seed, mode="roadrunner-user", payload_mb=1.0):
    return TenantSpec(
        name=name,
        mode=mode,
        weight=1,
        arrivals=PoissonArrivals(
            rate_rps=20.0, duration_s=2.0, payload_mb=payload_mb, seed=seed
        ),
    )


def test_shared_service_cache_measures_each_key_once(monkeypatch):
    measured = []
    original = cluster_runtime._measure_service_time

    def counting(mode, payload_bytes, cost_model):
        measured.append((mode, payload_bytes))
        return original(mode, payload_bytes, cost_model)

    monkeypatch.setattr(cluster_runtime, "_measure_service_time", counting)
    # Both regions serve the (roadrunner-user, 1 MB) key; the third tenant
    # adds a second key in one region only.
    tenants = [
        _tenant("steady", 1),
        _tenant("noisy", 2),
        _tenant("batch", 3, mode="runc-http", payload_mb=0.5),
    ]
    clusters = [
        ClusterSpec(region="eu", nodes=2, tenants=("steady", "batch")),
        ClusterSpec(region="us", nodes=2, tenants=("noisy",)),
    ]
    cache = {}

    def run():
        return FederatedTrafficEngine(
            tenants,
            clusters,
            config=TrafficConfig(nodes=2, initial_replicas=1),
            service_cache=cache,
        ).run()

    first = run()
    wanted = {("roadrunner-user", MB), ("runc-http", MB // 2)}
    # The shared key was served in both regions, yet measured only once.
    assert first.regions["eu"].tenants["steady"].completed > 0
    assert first.regions["us"].tenants["noisy"].completed > 0
    assert sorted(measured) == sorted(wanted)
    assert set(cache) == wanted

    measured.clear()
    second = run()
    assert measured == []  # a warm shared cache measures nothing
    assert repr(second) == repr(first)


# -- _merge_timelines vs the global sort it replaced -------------------------------


def _merge_timelines_reference(timelines):
    """The pre-rework implementation: one global stable sort over all events."""
    events = sorted(
        (time_s, index, count)
        for index, timeline in enumerate(timelines)
        for time_s, count in timeline
    )
    current = [0] * len(timelines)
    merged = []
    for time_s, index, count in events:
        current[index] = count
        total = sum(current)
        if merged and merged[-1][0] == time_s:
            merged[-1] = (time_s, total)
        else:
            merged.append((time_s, total))
    return merged


timeline_strategy = st.lists(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=32),
        ),
        max_size=30,
    ).map(lambda timeline: sorted(timeline, key=lambda entry: entry[0])),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(timelines=timeline_strategy)
def test_merge_timelines_equals_global_sort_reference(timelines):
    # Engine timelines arrive per-tenant in non-decreasing event order —
    # exactly what the strategy produces and what heapq.merge requires.
    assert _merge_timelines(timelines) == _merge_timelines_reference(timelines)


def test_merge_timelines_breaks_cross_tenant_ties_by_tenant_index():
    timelines = [[(0.0, 1), (5.0, 3)], [(0.0, 2), (5.0, 4)]]
    # At each shared instant the later (higher-index) tenant lands last,
    # and same-time events collapse to one row holding the final total.
    assert _merge_timelines(timelines) == [(0.0, 3), (5.0, 7)]


# -- _ordered_requests: sortedness check instead of an unconditional sort ----------


def _request(request_id, arrival_s):
    return Request(
        request_id=request_id,
        arrival_s=arrival_s,
        function="app",
        payload_bytes=MB,
    )


def test_ordered_requests_passes_sorted_tuples_through_untouched():
    stream = tuple(_request(i, float(i)) for i in range(50))
    assert _ordered_requests(stream) is stream  # no copy, no sort


def test_ordered_requests_sorts_by_arrival_then_id():
    stream = [_request(i, float(i)) for i in range(50)]
    shuffled = list(stream)
    random.Random(3).shuffle(shuffled)
    ordered = _ordered_requests(shuffled)
    assert list(ordered) == stream
    # Equal arrival instants fall back to request id.
    ties = [_request(2, 1.0), _request(0, 1.0), _request(1, 0.5)]
    assert [r.request_id for r in _ordered_requests(ties)] == [1, 0, 2]


def test_engine_results_are_order_insensitive():
    # TrafficEngine.run and run_comparison both canonicalize through
    # _ordered_requests, so a shuffled stream must reproduce the sorted
    # stream's summary exactly.
    requests = PoissonArrivals(
        rate_rps=30.0, duration_s=2.0, payload_mb=1.0, seed=11
    ).generate()
    shuffled = list(requests)
    random.Random(7).shuffle(shuffled)

    def _engine():
        return TrafficEngine(
            "roadrunner-user",
            autoscaler=Autoscaler(
                FixedReplicasPolicy(2), min_replicas=2, max_replicas=2
            ),
            config=TrafficConfig(nodes=2, initial_replicas=2),
        )

    sorted_summary = _engine().run(requests, pattern="poisson")
    shuffled_summary = _engine().run(shuffled, pattern="poisson")
    assert shuffled_summary == sorted_summary
