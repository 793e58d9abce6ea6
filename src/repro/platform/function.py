"""Function specifications.

A :class:`FunctionSpec` describes a serverless function independent of where
or how it runs: its name, its handler (a Python callable standing in for the
compiled guest code), which runtime packaging it targets and whether it needs
WASI capabilities.  Deployment turns a spec into a
:class:`~repro.platform.deployment.DeployedFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.payload import Payload
from repro.wasm.runtime import RuntimeKind


#: Runtimes that package a function as a Wasm module.
_WASM_RUNTIMES = (RuntimeKind.WASMEDGE, RuntimeKind.ROADRUNNER)


class FunctionSpecError(ValueError):
    """Raised for invalid function definitions."""


def passthrough_handler(payload: Payload) -> Payload:
    """The paper's I/O-bound workload: forward the payload unchanged."""
    return payload


@dataclass(frozen=True)
class FunctionSpec:
    """A serverless function definition."""

    name: str
    runtime: RuntimeKind = RuntimeKind.WASMEDGE
    handler: Callable[[Payload], Payload] = passthrough_handler
    requires_wasi: bool = True
    memory_limit_mb: int = 512
    binary_size: int = 3_190_000
    workflow: str = "default"
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not self.name:
            raise FunctionSpecError("function name must be non-empty")
        if self.memory_limit_mb <= 0:
            raise FunctionSpecError("memory limit must be positive")
        if self.binary_size <= 0:
            raise FunctionSpecError("binary size must be positive")

    @property
    def is_wasm(self) -> bool:
        return self.runtime in _WASM_RUNTIMES

    def renamed(self, name: str) -> "FunctionSpec":
        """A copy with a different name (used when fanning out replicas)."""
        return FunctionSpec(
            name=name,
            runtime=self.runtime,
            handler=self.handler,
            requires_wasi=self.requires_wasi,
            memory_limit_mb=self.memory_limit_mb,
            binary_size=self.binary_size,
            workflow=self.workflow,
            tenant=self.tenant,
        )
