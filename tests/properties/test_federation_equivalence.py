"""Property-based equivalence: a 1-cluster federation IS the plain engine.

The federation layer's core refactoring invariant, checked over random
workloads: wrapping the extracted :class:`ClusterRuntime` in a single-region
federation with a zero-cost loopback "WAN" must produce request-for-request
identical results to the unfederated ``MultiTenantTrafficEngine`` — same
records, same rollups, same repr.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine
from repro.traffic.tenants import TenantSpec

workload = st.fixed_dictionaries(
    {
        "rps": st.floats(min_value=5.0, max_value=80.0),
        "duration": st.floats(min_value=2.0, max_value=8.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        "bursty": st.booleans(),
        "nodes": st.integers(min_value=1, max_value=4),
        "timeout": st.floats(min_value=0.5, max_value=30.0),
    }
)


def _tenants(params):
    if params["bursty"]:
        arrivals = BurstyArrivals(
            on_rate_rps=params["rps"],
            duration_s=params["duration"],
            on_s=1.0,
            off_s=1.0,
            payload_mb=1.0,
            seed=params["seed"],
        )
    else:
        arrivals = PoissonArrivals(
            rate_rps=params["rps"],
            duration_s=params["duration"],
            payload_mb=1.0,
            seed=params["seed"],
        )
    return [TenantSpec(name="app", mode="roadrunner-user", arrivals=arrivals)]


def _config(params):
    return TrafficConfig(nodes=params["nodes"], queue_timeout_s=params["timeout"])


@given(params=workload)
@settings(max_examples=12, deadline=None)
def test_single_cluster_federation_is_request_for_request_identical(params):
    baseline = MultiTenantTrafficEngine(_tenants(params), config=_config(params))
    expected = baseline.run()
    federated = FederatedTrafficEngine(
        _tenants(params),
        # The region is named after the engine's node prefix so replica and
        # node identifiers line up byte-for-byte.
        [ClusterSpec(region="traffic", nodes=params["nodes"])],
        config=_config(params),
    )
    summary = federated.run()
    assert repr(summary.region("traffic")) == repr(expected)
    assert federated.records["traffic"]["app"] == baseline.records["app"]
    assert repr(summary.tenants["app"]) == repr(expected.tenants["app"])
    assert summary.router.remote == 0
    assert summary.router.wan_bytes == 0
