"""Unit tests for the sharded cluster ledger (NodeLedger + ClusterLedger)."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.ledger import (
    ClusterLedger,
    CostCategory,
    CostLedger,
    CpuDomain,
    LedgerError,
    NodeLedger,
)


def test_shards_get_unique_ledger_names():
    cluster = ClusterLedger()
    edge = cluster.shard("edge")
    cloud = cluster.shard("cloud")
    assert edge.name == "ledger:edge"
    assert cloud.name == "ledger:cloud"
    with pytest.raises(LedgerError):
        cluster.shard("edge")
    with pytest.raises(LedgerError):
        cluster.shard("cluster")  # reserved for the cluster shard


def test_merge_rejects_duplicate_shard_names():
    cluster = ClusterLedger()
    cluster.shard("n1")
    with pytest.raises(LedgerError):
        cluster.merge(NodeLedger("n1"))
    # A failed merge adopts nothing, even when only one of several collides.
    with pytest.raises(LedgerError):
        cluster.merge(NodeLedger("n2"), NodeLedger("n1"))
    assert sorted(cluster.shards()) == ["n1"]


def test_charges_stamp_node_and_sequence():
    cluster = ClusterLedger()
    node = cluster.shard("n1")
    first = node.charge(CostCategory.SYSCALL, 0.1)
    second = node.charge(CostCategory.MEMCPY, 0.2)
    assert (first.node, first.seq) == ("n1", 0)
    assert (second.node, second.seq) == ("n1", 1)
    ingress = cluster.charge(CostCategory.HTTP, 0.05)
    assert ingress.node == "cluster"


def test_merged_view_orders_by_time_then_node_then_seq():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    # Interleave across shards; the shared clock advances through both.
    b.charge(CostCategory.SYSCALL, 0.1, label="b0")
    a.charge(CostCategory.SYSCALL, 0.1, label="a0")
    # Two zero-width charges at the same instant: node name breaks the tie.
    b.charge(CostCategory.MEMCPY, 0.0, label="b1", wall_time=False)
    a.charge(CostCategory.MEMCPY, 0.0, label="a1", wall_time=False)
    labels = [charge.label for charge in cluster.charges]
    assert labels == ["b0", "a0", "a1", "b1"]
    assert len(cluster) == 4


def test_snapshot_brackets_charges_across_shards():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    a.charge(CostCategory.SYSCALL, 0.1, label="before")
    mark = cluster.snapshot()
    b.charge(CostCategory.MEMCPY, 0.2, label="inside-b")
    a.charge(CostCategory.TRANSFER, 0.3, label="inside-a")
    fresh = cluster.charges_since(mark)
    assert [charge.label for charge in fresh] == ["inside-b", "inside-a"]


def test_totals_aggregate_across_shards():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    a.charge(CostCategory.SYSCALL, 0.1, cpu_domain=CpuDomain.KERNEL, nbytes=10, copied=True)
    b.charge(CostCategory.SERIALIZATION, 0.2, nbytes=20)
    cluster.charge(CostCategory.HTTP, 0.3)
    assert cluster.total_seconds() == pytest.approx(0.6)
    assert cluster.seconds(CostCategory.SYSCALL) == pytest.approx(0.1)
    assert cluster.serialization_seconds() == pytest.approx(0.2)
    assert cluster.cpu_seconds(CpuDomain.KERNEL) == pytest.approx(0.1)
    assert cluster.copied_bytes == 10
    assert cluster.reference_bytes == 20
    assert cluster.syscalls == 1
    assert cluster.breakdown() == {
        "syscall": pytest.approx(0.1),
        "serialization": pytest.approx(0.2),
        "http": pytest.approx(0.3),
    }
    assert set(cluster.node_breakdown()) == {"cluster", "a", "b"}


def test_memory_peaks_aggregate_as_per_node_maxima():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    meter_a = a.meter("a/sandbox", baseline_bytes=100)
    meter_a.allocate(900)   # peak 1000
    meter_a.free(500)
    meter_b = b.meter("b/sandbox")
    meter_b.allocate(50)    # peak 50
    assert cluster.peak_memory_bytes() == 1050
    assert cluster.peak_memory_by_node() == {"cluster": 0, "a": 1000, "b": 50}
    assert set(cluster.meters()) == {"a/sandbox", "b/sandbox"}


def test_shared_clock_gives_one_timeline_in_serial_runs():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    a.charge(CostCategory.SYSCALL, 0.25)
    charge = b.charge(CostCategory.SYSCALL, 0.25)
    assert charge.timestamp == pytest.approx(0.25)  # saw a's advance
    assert cluster.clock.now == pytest.approx(0.5)


def test_merge_of_detached_shards_syncs_the_clock():
    cluster = ClusterLedger()
    forked = cluster.clock.fork()
    detached = NodeLedger("worker", clock=forked)
    detached.charge(CostCategory.COMPUTE, 1.5)
    cluster.merge(detached)
    assert cluster.clock.now == pytest.approx(1.5)
    assert cluster.node_shard("worker") is detached
    assert cluster.total_seconds() == pytest.approx(1.5)


def test_backing_ledger_becomes_the_cluster_shard():
    backing = CostLedger(clock=SimClock(), name="traffic")
    cluster = ClusterLedger(backing=backing)
    backing.charge(CostCategory.HTTP, 0.1)
    cluster.charge(CostCategory.HTTP, 0.2)
    assert cluster.cluster_shard is backing
    assert len(backing) == 2
    assert cluster.total_seconds() == pytest.approx(0.3)


def test_reset_clears_every_shard_and_the_clock():
    cluster = ClusterLedger()
    node = cluster.shard("n1")
    node.charge(CostCategory.SYSCALL, 0.4)
    cluster.charge(CostCategory.HTTP, 0.1)
    cluster.reset()
    assert len(cluster) == 0
    assert cluster.clock.now == 0.0
    assert cluster.total_seconds() == 0.0


def _order(charges):
    return [(charge.timestamp, charge.node, charge.seq) for charge in charges]


def test_charges_since_merges_interleaved_shards_in_timeline_order():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    a.charge(CostCategory.SYSCALL, 0.1, label="before")
    mark = cluster.snapshot()
    b.charge(CostCategory.MEMCPY, 0.2, label="b0")
    a.charge(CostCategory.MEMCPY, 0.0, label="a1", wall_time=False)
    b.charge(CostCategory.MEMCPY, 0.0, label="b1", wall_time=False)
    a.charge(CostCategory.TRANSFER, 0.3, label="a2")
    b.charge(CostCategory.NETWORK, 0.1, label="b2")
    fresh = cluster.charges_since(mark)
    # a1, b1 and a2 share one instant: node, then sequence, break the tie.
    assert [charge.label for charge in fresh] == ["b0", "a1", "a2", "b1", "b2"]
    assert _order(fresh) == sorted(_order(fresh))
    assert isinstance(fresh, tuple)


def test_charges_since_orders_by_timestamp_across_a_clock_reset():
    cluster = ClusterLedger()
    a = cluster.shard("a")
    b = cluster.shard("b")
    mark = cluster.snapshot()
    a.charge(CostCategory.SYSCALL, 1.0, label="a-late")
    b.charge(CostCategory.SYSCALL, 1.0, label="b-late")
    # The shared clock restarts: charges recorded after the reset carry
    # earlier timestamps than b's first one, so b's own append order is not
    # the timeline order.
    cluster.clock.reset(start=0.5)
    b.charge(CostCategory.MEMCPY, 0.25, label="b-early")
    a.charge(CostCategory.MEMCPY, 0.0, label="a-early", wall_time=False)
    fresh = cluster.charges_since(mark)
    assert [charge.label for charge in fresh] == ["a-late", "b-early", "a-early", "b-late"]
    assert _order(fresh) == [(0.0, "a", 0), (0.5, "b", 1), (0.75, "a", 1), (1.0, "b", 0)]
    assert fresh == cluster.charges
