"""Building frozen dataclass instances on the simulator's hot paths.

A frozen dataclass ``__init__`` stores every field through its own
``object.__setattr__`` call.  For the small records the data path creates
per charge and per transfer (:class:`~repro.sim.ledger.Charge`,
:class:`~repro.metrics.records.TransferMetrics`,
:class:`~repro.payload.Payload`) that is most of the record's cost.
:func:`from_fields` builds an equal, equally frozen instance by installing
its attribute dict in one step.
"""

from __future__ import annotations

from typing import Any, Dict, Type, TypeVar

T = TypeVar("T")

_new = object.__new__
_set = object.__setattr__


def from_fields(cls: Type[T], fields: Dict[str, Any]) -> T:
    """An instance of frozen dataclass ``cls`` whose attributes are ``fields``.

    Neither ``__init__`` nor ``__post_init__`` runs: ``fields`` must name
    every field of ``cls``, with values the caller has already validated.
    """
    instance = _new(cls)
    _set(instance, "__dict__", fields)
    return instance
