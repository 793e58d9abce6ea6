"""Cost ledgers: the places where simulated time, CPU and memory accrue.

Every substrate operation (a memcpy, a syscall, a serialization pass, a wire
transfer) records a :class:`Charge`.  The experiment harness then derives the
paper's metrics from the ledger:

* total latency           -> sum of wall-time charges,
* serialization latency   -> charges in the SERIALIZATION/DESERIALIZATION categories,
* Wasm VM I/O             -> charges in the WASM_IO category,
* CPU usage (user/kernel) -> CPU-seconds per :class:`CpuDomain`,
* RAM                     -> peak of the attached :class:`MemoryMeter`,
* copies                  -> bytes copied vs bytes moved by reference.

Accounting is *sharded per node*: each cluster node charges its own
:class:`NodeLedger`, and a :class:`ClusterLedger` aggregates the shards into
one mergeable view.  Charges carry ``(timestamp, node, seq)``, so the merged
timeline is a deterministic total order however the shards were filled —
including by concurrent workers simulating whole nodes in parallel.  Code
that only ever charges and queries one ledger (a kernel, a Wasm runtime, a
unit test) keeps using the plain :class:`CostLedger` it always did.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.frozen import from_fields
from repro.sim.clock import SimClock


class CostCategory(enum.Enum):
    """What kind of work a charge represents (the paper's breakdown axes)."""

    SERIALIZATION = "serialization"
    DESERIALIZATION = "deserialization"
    TRANSFER = "transfer"
    WASM_IO = "wasm_io"
    MEMCPY = "memcpy"
    SYSCALL = "syscall"
    CONTEXT_SWITCH = "context_switch"
    IPC = "ipc"
    NETWORK = "network"
    SPLICE = "splice"
    HTTP = "http"
    COLD_START = "cold_start"
    COMPUTE = "compute"
    OTHER = "other"

    # Identity hashing in C: ``Enum.__hash__`` hashes the member name in
    # Python, and the ledger keys dicts by category on every charge.  Members
    # are singletons (pickling included), so identity is the right equality.
    __hash__ = object.__hash__


#: Categories counted as "serialization overhead" in the paper's plots.
SERIALIZATION_CATEGORIES = (CostCategory.SERIALIZATION, CostCategory.DESERIALIZATION)


class CpuDomain(enum.Enum):
    """Where CPU time is spent, mirroring cgroup user/system accounting."""

    USER = "user"
    KERNEL = "kernel"
    #: Work that consumes wall time but no local CPU (e.g. wire propagation).
    NONE = "none"

    __hash__ = object.__hash__  # see CostCategory


# Module-level aliases: member lookups on an Enum class run Python code
# before Python 3.12, and these are read for every charge folded.
_SYSCALL = CostCategory.SYSCALL
_CONTEXT_SWITCH = CostCategory.CONTEXT_SWITCH
_NO_CPU = CpuDomain.NONE


class LedgerError(ValueError):
    """Raised for invalid charges."""


def _check_charge(seconds: float, nbytes: int, units: int) -> None:
    """Raise :class:`LedgerError` unless a charge's quantities are valid."""
    if not 0 <= seconds < math.inf:
        raise LedgerError("charge duration must be finite and non-negative, got %r" % (seconds,))
    if nbytes < 0:
        raise LedgerError("charge nbytes must be non-negative, got %r" % (nbytes,))
    if units < 1:
        raise LedgerError("charge units must be >= 1, got %r" % (units,))


@dataclass(frozen=True)
class Charge:
    """A single accounted operation."""

    category: CostCategory
    seconds: float
    cpu_domain: CpuDomain = CpuDomain.USER
    nbytes: int = 0
    copied: bool = False
    label: str = ""
    timestamp: float = 0.0
    #: How many underlying operations this charge batches (e.g. syscalls).
    units: int = 1
    #: Node whose shard recorded the charge ("" for a standalone ledger).
    node: str = ""
    #: Per-shard append sequence; with ``(timestamp, node)`` it totally
    #: orders the merged cluster timeline.
    seq: int = 0

    def __post_init__(self) -> None:
        _check_charge(self.seconds, self.nbytes, self.units)


class MemoryMeter:
    """Tracks resident memory of one sandbox (container or Wasm VM).

    The meter follows a simple high-watermark model: allocations raise the
    current level, frees lower it, and ``peak_bytes`` records the maximum.
    """

    def __init__(self, baseline_bytes: int = 0, name: str = "") -> None:
        if baseline_bytes < 0:
            raise LedgerError("baseline_bytes must be non-negative")
        self.name = name
        self._baseline = int(baseline_bytes)
        self._current = int(baseline_bytes)
        self._peak = int(baseline_bytes)

    @property
    def current_bytes(self) -> int:
        return self._current

    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def peak_mb(self) -> float:
        return self._peak / (1024.0 * 1024.0)

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise LedgerError("cannot allocate a negative amount")
        self._current += nbytes
        if self._current > self._peak:
            self._peak = self._current

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` of a previous allocation.

        Freeing more than is currently allocated above the baseline is an
        accounting bug (a double free, or a free with no matching allocate),
        not a rounding artefact — silently clamping to the baseline would
        mask it, so it raises instead (mirroring
        ``IngressGateway.release`` on double-release).
        """
        if nbytes < 0:
            raise LedgerError("cannot free a negative amount")
        allocated = self._current - self._baseline
        if nbytes > allocated:
            raise LedgerError(
                "meter %r cannot free %d bytes: only %d allocated above the "
                "baseline (double free?)" % (self.name, nbytes, allocated)
            )
        self._current -= nbytes

    def reset(self) -> None:
        self._current = self._baseline
        self._peak = self._baseline


class CostLedger:
    """Accumulates charges and advances an optional simulated clock.

    Parameters
    ----------
    clock:
        Shared simulated clock; wall-time charges advance it.  When omitted a
        private clock is created.
    """

    #: Node label stamped onto charges ("" for a standalone ledger).
    node_name: str = ""

    def __init__(self, clock: Optional[SimClock] = None, name: str = "") -> None:
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self._charges: List[Charge] = []
        self._meters: Dict[str, MemoryMeter] = {}
        self._copied_bytes = 0
        self._reference_bytes = 0
        self._syscalls = 0
        self._context_switches = 0
        # Running totals, folded in charge order so each equals the
        # equivalent left-to-right scan bit-for-bit.  They turn
        # total_seconds()/seconds(cat)/cpu_seconds() from O(charges) scans
        # into O(1) lookups — the scans were a hidden quadratic for callers
        # polling totals while charging (e.g. cold-start deltas per replica).
        # charge() only appends; the first query after it folds the new
        # charges in (see _fold), so the data path, which reads no totals,
        # never pays for them.
        self._total_seconds = 0.0
        self._category_seconds: Dict[CostCategory, float] = {}
        self._domain_seconds: Dict[CpuDomain, float] = {}
        self._cpu_seconds_all = 0.0
        self._folded = 0

    # -- recording -------------------------------------------------------------

    def charge(
        self,
        category: CostCategory,
        seconds: float,
        *,
        cpu_domain: CpuDomain = CpuDomain.USER,
        nbytes: int = 0,
        copied: bool = False,
        label: str = "",
        wall_time: bool = True,
        units: int = 1,
    ) -> Charge:
        """Record one operation.

        ``wall_time=False`` records CPU/byte accounting without advancing the
        clock — used for work that overlaps another already-charged wait (for
        example the receiver-side copy that proceeds while the wire is busy).
        ``units`` records how many underlying operations the charge batches
        (e.g. chunked syscalls).
        """
        if not (0 <= seconds < math.inf and nbytes >= 0 and units >= 1):
            _check_charge(seconds, nbytes, units)  # raises, naming the field
        clock = self.clock
        charges = self._charges
        entry = from_fields(
            Charge,
            {
                "category": category,
                "seconds": seconds,
                "cpu_domain": cpu_domain,
                "nbytes": nbytes,
                "copied": copied,
                "label": label,
                "timestamp": clock.now,
                "units": units,
                "node": self.node_name,
                "seq": len(charges),
            },
        )
        charges.append(entry)
        if wall_time and seconds:
            clock.advance(seconds)
        return entry

    def _fold(self) -> None:
        """Fold the charges appended since the last query into the totals."""
        charges = self._charges
        account = self._account
        for c in charges[self._folded:]:
            # A charge counts every batched syscall unit (merge() below
            # folds an adopted entry as one syscall).
            account(c.category, c.seconds, c.cpu_domain, c.nbytes, c.copied, c.units)
        self._folded = len(charges)

    def _account(
        self,
        category: CostCategory,
        seconds: float,
        domain: CpuDomain,
        nbytes: int,
        copied: bool,
        syscalls: int,
    ) -> None:
        """Fold one charge into the running totals (in append order)."""
        self._total_seconds += seconds
        by_category = self._category_seconds
        by_category[category] = by_category.get(category, 0.0) + seconds
        by_domain = self._domain_seconds
        by_domain[domain] = by_domain.get(domain, 0.0) + seconds
        if domain is not _NO_CPU:
            self._cpu_seconds_all += seconds
        if nbytes:
            if copied:
                self._copied_bytes += nbytes
            else:
                self._reference_bytes += nbytes
        if category is _SYSCALL:
            self._syscalls += syscalls
        elif category is _CONTEXT_SWITCH:
            self._context_switches += 1

    def count_syscalls(self, count: int) -> None:
        """Record additional syscalls batched into a single charge."""
        if count < 0:
            raise LedgerError("syscall count must be non-negative")
        self._syscalls += count

    def meter(self, name: str, baseline_bytes: int = 0) -> MemoryMeter:
        """Return (creating if needed) the memory meter for a sandbox."""
        if name not in self._meters:
            self._meters[name] = MemoryMeter(baseline_bytes=baseline_bytes, name=name)
        return self._meters[name]

    # -- queries -----------------------------------------------------------------

    @property
    def charges(self) -> Tuple[Charge, ...]:
        return tuple(self._charges)

    def snapshot(self) -> "LedgerSnapshot":
        """A position marker for :meth:`charges_since` (cheap, O(1))."""
        return LedgerSnapshot(positions=((self.node_name, len(self._charges)),))

    def charges_since(self, snapshot: "LedgerSnapshot") -> Tuple[Charge, ...]:
        """Charges recorded after ``snapshot`` was taken, in order."""
        start = dict(snapshot.positions).get(self.node_name, 0)
        return tuple(self._charges[start:])

    def __iter__(self) -> Iterator[Charge]:
        return iter(self._charges)

    def __len__(self) -> int:
        return len(self._charges)

    def total_seconds(self) -> float:
        """Total simulated wall time of all charges."""
        self._fold()
        return self._total_seconds

    def seconds(self, *categories: CostCategory) -> float:
        if len(categories) == 1:
            # The running per-category total accumulates in exactly the order
            # a filtered scan would visit, so the fast path is bit-identical.
            self._fold()
            return self._category_seconds.get(categories[0], 0.0)
        # Multiple categories interleave in the charge stream; summing the
        # per-category totals would reassociate the float additions, so keep
        # the scan for the (cold) multi-category calls.
        wanted = set(categories)
        return sum(c.seconds for c in self._charges if c.category in wanted)

    def serialization_seconds(self) -> float:
        return self.seconds(*SERIALIZATION_CATEGORIES)

    def cpu_seconds(self, domain: Optional[CpuDomain] = None) -> float:
        self._fold()
        if domain is None:
            return self._cpu_seconds_all
        return self._domain_seconds.get(domain, 0.0)

    @property
    def copied_bytes(self) -> int:
        """Bytes that were physically copied."""
        self._fold()
        return self._copied_bytes

    @property
    def reference_bytes(self) -> int:
        """Bytes moved by reference (zero-copy paths)."""
        self._fold()
        return self._reference_bytes

    @property
    def syscalls(self) -> int:
        self._fold()
        return self._syscalls

    @property
    def context_switches(self) -> int:
        self._fold()
        return self._context_switches

    def peak_memory_bytes(self) -> int:
        """Sum of per-sandbox memory peaks."""
        return sum([meter._peak for meter in self._meters.values()])

    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes() / (1024.0 * 1024.0)

    def meters(self) -> Dict[str, MemoryMeter]:
        return dict(self._meters)

    def breakdown(self) -> Dict[str, float]:
        """Seconds per category name (stable keys for reports)."""
        # _category_seconds shares both the first-seen key order and the
        # per-key accumulation order of the old full scan.
        self._fold()
        return {
            category.value: seconds
            for category, seconds in self._category_seconds.items()
        }

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's charges into this one (no clock interaction)."""
        self._fold()
        for c in other.charges:
            self._charges.append(c)
            self._account(c.category, c.seconds, c.cpu_domain, c.nbytes, c.copied, 1)
        self._folded = len(self._charges)
        for name, meter in other.meters().items():
            mine = self.meter(name)
            mine.allocate(meter.peak_bytes)

    def reset(self) -> None:
        self._charges.clear()
        self._meters.clear()
        self._copied_bytes = 0
        self._reference_bytes = 0
        self._syscalls = 0
        self._context_switches = 0
        self._total_seconds = 0.0
        self._category_seconds.clear()
        self._domain_seconds.clear()
        self._cpu_seconds_all = 0.0
        self._folded = 0
        self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CostLedger(name=%r, charges=%d, total=%.6fs)" % (
            self.name,
            len(self._charges),
            self.total_seconds(),
        )


@dataclass(frozen=True)
class LedgerSnapshot:
    """Positions into each shard's charge stream at one instant.

    Taken before a measured interval and handed back to
    :meth:`CostLedger.charges_since` /
    :meth:`ClusterLedger.charges_since`, it brackets exactly the charges
    recorded inside the interval regardless of which shard they landed on —
    the sharded replacement for slicing one global append log.
    """

    positions: Tuple[Tuple[str, int], ...]


#: The deterministic total order of the merged cluster timeline.
_merge_key = attrgetter("timestamp", "node", "seq")


class NodeLedger(CostLedger):
    """One node's cost shard.

    A :class:`NodeLedger` is a plain :class:`CostLedger` that knows which
    node it accounts for: every charge is stamped with the node name and a
    per-shard sequence number, so shards filled independently (even by
    concurrent workers) merge into one deterministic cluster timeline.
    Shard names are ``ledger:<node>`` and must be unique within a cluster.
    """

    def __init__(
        self,
        node_name: str,
        clock: Optional[SimClock] = None,
        name: Optional[str] = None,
    ) -> None:
        if not node_name:
            raise LedgerError("a node ledger needs a non-empty node name")
        super().__init__(clock=clock, name=name if name is not None else "ledger:%s" % node_name)
        self.node_name = node_name


class ClusterLedger:
    """The mergeable cluster view over per-node ledger shards.

    The cluster ledger *is not* an append log: every node charges its own
    :class:`NodeLedger` (no contention on one append path), and this view
    aggregates on demand.  ``charges`` presents the merged timeline in the
    deterministic ``(timestamp, node, seq)`` order; totals, CPU splits,
    byte counters and memory peaks sum across shards.  Cluster-scoped work
    that belongs to no node (ingress routing, gateway bookkeeping) charges
    the built-in ``cluster`` shard, which is also where the pre-shard
    ``CostLedger`` API (``charge``/``meter``/``count_syscalls``) lands, so
    existing callers keep working against ``Cluster.ledger`` unchanged.

    Parameters
    ----------
    clock:
        Simulated clock shared by every shard (serial simulation).  Shards
        built elsewhere with forked clocks can be folded in via
        :meth:`merge`, which re-synchronizes this clock to the furthest
        shard.
    backing:
        Optional existing :class:`CostLedger` to adopt as the cluster
        shard — how a cluster wraps a caller-supplied ledger so charges the
        caller records on their handle stay visible in the merged view.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        name: str = "cluster",
        backing: Optional[CostLedger] = None,
    ) -> None:
        self.name = name
        if backing is not None:
            self.clock = backing.clock
            if not backing.node_name:
                backing.node_name = "cluster"
            self._cluster_shard = backing
        else:
            self.clock = clock if clock is not None else SimClock()
            self._cluster_shard = CostLedger(clock=self.clock, name="%s:cluster" % name)
            self._cluster_shard.node_name = "cluster"
        self._shards: Dict[str, NodeLedger] = {}
        #: The cluster shard, then the node shards in registration order.
        self._every_shard: List[CostLedger] = [self._cluster_shard]
        self._merged_cache: Tuple[Charge, ...] = ()
        self._merged_cache_len = 0

    # -- shard management --------------------------------------------------------

    def shard(self, node_name: str) -> NodeLedger:
        """Create (and register) the shard for ``node_name``.

        Shard names are unique: two nodes can never silently share one
        accounting namespace.
        """
        self._check_unique(node_name)
        shard = NodeLedger(node_name=node_name, clock=self.clock)
        self._shards[node_name] = shard
        self._every_shard.append(shard)
        return shard

    def merge(self, *shards: NodeLedger) -> None:
        """Fold externally-filled shards into the view (deterministic).

        Used after a parallel section: workers fill detached shards (each
        with a forked clock), and the merge adopts them, asserts shard-name
        uniqueness and advances the shared clock to the furthest shard.
        Merging is commutative — any adoption order yields the same view,
        because ordering lives in the ``(timestamp, node, seq)`` keys.
        """
        for shard in shards:
            self._check_unique(shard.node_name)
        for shard in shards:
            self._shards[shard.node_name] = shard
            if shard.clock is not self.clock:
                self.clock.sync_to(shard.clock)
        self._every_shard = [self._cluster_shard, *self._shards.values()]

    def _check_unique(self, node_name: str) -> None:
        if not node_name:
            raise LedgerError("a cluster shard needs a non-empty node name")
        if node_name == self._cluster_shard.node_name:
            raise LedgerError("shard name %r is reserved for the cluster shard" % node_name)
        if node_name in self._shards:
            raise LedgerError(
                "duplicate ledger shard %r: two nodes cannot share one "
                "accounting namespace" % node_name
            )

    @property
    def cluster_shard(self) -> CostLedger:
        """The shard for cluster-scoped (node-less) charges."""
        return self._cluster_shard

    def shards(self) -> Dict[str, NodeLedger]:
        """Per-node shards keyed by node name (the cluster shard excluded)."""
        return dict(self._shards)

    def node_shard(self, node_name: str) -> NodeLedger:
        if node_name not in self._shards:
            raise LedgerError("no ledger shard for node %r" % node_name)
        return self._shards[node_name]

    def _all_shards(self) -> List[CostLedger]:
        return self._every_shard

    # -- recording (cluster-scoped; the pre-shard CostLedger surface) -------------

    def charge(self, *args, **kwargs) -> Charge:
        return self._cluster_shard.charge(*args, **kwargs)

    def count_syscalls(self, count: int) -> None:
        self._cluster_shard.count_syscalls(count)

    def meter(self, name: str, baseline_bytes: int = 0) -> MemoryMeter:
        return self._cluster_shard.meter(name, baseline_bytes)

    # -- merged queries ----------------------------------------------------------

    @property
    def charges(self) -> Tuple[Charge, ...]:
        """The merged timeline, ordered by ``(timestamp, node, seq)``."""
        total = len(self)
        if total != self._merged_cache_len:
            merged: List[Charge] = []
            for shard in self._all_shards():
                merged.extend(shard._charges)
            merged.sort(key=_merge_key)
            self._merged_cache = tuple(merged)
            self._merged_cache_len = total
        return self._merged_cache

    def merged_charges(self) -> Tuple[Charge, ...]:
        return self.charges

    def __iter__(self) -> Iterator[Charge]:
        return iter(self.charges)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._all_shards())

    def snapshot(self) -> LedgerSnapshot:
        return LedgerSnapshot(
            positions=tuple(
                [(shard.node_name, len(shard._charges)) for shard in self._all_shards()]
            )
        )

    def charges_since(self, snapshot: LedgerSnapshot) -> Tuple[Charge, ...]:
        """Merged charges recorded after ``snapshot``, in timeline order.

        Shards created after the snapshot contribute from their beginning.
        """
        positions = dict(snapshot.positions)
        fresh: List[Charge] = []
        for shard in self._all_shards():
            fresh.extend(shard._charges[positions.get(shard.node_name, 0):])
        fresh.sort(key=_merge_key)
        return tuple(fresh)

    def total_seconds(self) -> float:
        return sum(shard.total_seconds() for shard in self._all_shards())

    def seconds(self, *categories: CostCategory) -> float:
        return sum(shard.seconds(*categories) for shard in self._all_shards())

    def serialization_seconds(self) -> float:
        return self.seconds(*SERIALIZATION_CATEGORIES)

    def cpu_seconds(self, domain: Optional[CpuDomain] = None) -> float:
        return sum(shard.cpu_seconds(domain) for shard in self._all_shards())

    @property
    def copied_bytes(self) -> int:
        return sum(shard.copied_bytes for shard in self._all_shards())

    @property
    def reference_bytes(self) -> int:
        return sum(shard.reference_bytes for shard in self._all_shards())

    @property
    def syscalls(self) -> int:
        return sum(shard.syscalls for shard in self._all_shards())

    @property
    def context_switches(self) -> int:
        return sum(shard.context_switches for shard in self._all_shards())

    def peak_memory_bytes(self) -> int:
        """Cluster RAM: per-node peaks aggregate (sum of shard peaks)."""
        return sum([shard.peak_memory_bytes() for shard in self._all_shards()])

    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes() / (1024.0 * 1024.0)

    def peak_memory_by_node(self) -> Dict[str, int]:
        """Per-shard memory peaks (cluster shard under its own label)."""
        return {
            shard.node_name: shard.peak_memory_bytes() for shard in self._all_shards()
        }

    def meters(self) -> Dict[str, MemoryMeter]:
        out: Dict[str, MemoryMeter] = {}
        for shard in self._all_shards():
            out.update(shard.meters())
        return out

    def breakdown(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for shard in self._all_shards():
            for key, value in shard.breakdown().items():
                out[key] = out.get(key, 0.0) + value
        return out

    def node_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Seconds per category, per shard (the per-node metric series)."""
        return {shard.node_name: shard.breakdown() for shard in self._all_shards()}

    def reset(self) -> None:
        for shard in self._all_shards():
            shard.reset()  # resetting the shared clock repeatedly is harmless
        self._merged_cache = ()
        self._merged_cache_len = 0
        self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClusterLedger(name=%r, shards=%d, charges=%d)" % (
            self.name,
            len(self._shards),
            len(self),
        )
