"""Shared plumbing for Roadrunner's three channels: shim management.

Each deployed function gets exactly one shim; the channels share them through
this base class so the user-space, kernel-space and network modes all see the
same registries and the same configuration.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import RoadrunnerConfig
from repro.core.shim import RoadrunnerShim
from repro.platform.channel import DataPassingChannel
from repro.platform.cluster import Cluster
from repro.platform.deployment import DeployedFunction
from repro.sim.ledger import CostCategory, CpuDomain


#: The paper's configuration (frozen, so one instance serves every channel).
_DEFAULT_CONFIG = RoadrunnerConfig.default()


class RoadrunnerChannelBase(DataPassingChannel):
    """Base class holding the per-function shim cache and the config."""

    def __init__(self, cluster: Cluster, config: Optional[RoadrunnerConfig] = None) -> None:
        super().__init__(cluster.ledger)
        self.cluster = cluster
        self.config = config if config is not None else _DEFAULT_CONFIG
        self._shims: Dict[str, RoadrunnerShim] = {}

    def shim_for(self, deployed: DeployedFunction) -> RoadrunnerShim:
        """The (single) shim attached to ``deployed``, created on first use."""
        if deployed.name not in self._shims:
            self._shims[deployed.name] = RoadrunnerShim(
                deployed=deployed, cluster=self.cluster, config=self.config
            )
        return self._shims[deployed.name]

    def _stage_source_output(self, source: DeployedFunction, payload) -> RoadrunnerShim:
        """Run the guest-side half of every transfer.

        The source function locates its output in linear memory and hands the
        (pointer, length) to its shim via ``send_to_host`` — steps 1-2 of
        Figs. 4a/4b and Algorithm 1's ``FunctionA``.
        """
        shim = self.shim_for(source)
        guest_api = shim.guest_api()
        address, length = guest_api.locate_memory_region(payload)
        guest_api.send_to_host(address, length)
        # Residual data-preparation cost: locating the region and pinning its
        # page range.  This is Roadrunner's entire "serialization" component —
        # orders of magnitude below a codec pass, but not literally zero,
        # which is how the paper plots it (Figs. 7c/8c on a log axis).
        cost_model = self.cluster.cost_model
        preparation = cost_model.region_metadata_overhead + cost_model.transfer_time(
            payload.size, cost_model.pointer_registration_bandwidth
        )
        # Guest-side work happens on the source's host: charge its shard.
        self.node_ledger(source).charge(
            CostCategory.SERIALIZATION,
            preparation,
            cpu_domain=CpuDomain.USER,
            nbytes=0,
            label="pointer-handoff:%s" % source.name,
        )
        source.process.charge_cpu(CpuDomain.USER, preparation)
        return shim

    def _move(self, source, target, payload):  # pragma: no cover - abstract passthrough
        raise NotImplementedError
