"""Workstations and networks of workstations.

The model is "architecture-independent" in the sense of [9] (Section 2.1):
inter-workstation communication is characterized by the single overhead
parameter ``c`` — the combined cost of initiating the send-work and
return-results communications.  Task time already includes marginal data
transmission, so ``c`` is independent of data sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..exceptions import SimulationError
from .owner import OwnerProcess

__all__ = ["Workstation", "Network"]


@dataclass
class Workstation:
    """One borrowable workstation.

    ``speed`` scales task execution (a task of duration ``d`` takes ``d /
    speed`` wall-clock here, and a period's work budget is ``(t - c) *
    speed`` of task time); the communication overhead is a property of the
    network, not the workstation.  Both the scalar farm
    (:func:`repro.now.farm.run_farm`) and the fleet engine
    (:func:`repro.now.fleet.run_fleet`) honor the same semantics, so a
    single-host network and a one-host fleet agree bit-for-bit.
    """

    ws_id: int
    owner: OwnerProcess
    speed: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise SimulationError(
                f"workstation {self.ws_id} needs a positive finite speed, "
                f"got {self.speed!r}"
            )


@dataclass
class Network:
    """A NOW: the borrowable workstations plus the communication overhead."""

    workstations: list[Workstation]
    #: Combined setup cost of supplying work and retrieving results (the
    #: paper's ``c``), charged once per period.
    c: float

    def __post_init__(self) -> None:
        if not self.workstations:
            raise SimulationError("a network needs at least one workstation")
        if not 0 <= self.c < math.inf:
            raise SimulationError(
                f"overhead c must be nonnegative and finite, got {self.c}"
            )
        ids = [w.ws_id for w in self.workstations]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"workstation ids must be unique, got {ids}")

    def __len__(self) -> int:
        return len(self.workstations)
