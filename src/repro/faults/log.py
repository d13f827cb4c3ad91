"""Structured fault logs: every injected event, bit-reproducibly.

A chaos run is only useful if it can be replayed and audited.  The
:class:`FaultLog` records each injected event — crashes, lost and delayed
dispatch messages, overhead jitter draws, corrupted results, life-function
drift — as an immutable :class:`FaultEvent` in injection order.  Because the
fault runtime draws from its own seeded generator (never the farm's), the log
is a pure function of ``(seed, plan, workload)``: two runs with the same
inputs produce byte-identical logs, which :meth:`FaultLog.digest` certifies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

__all__ = ["FaultEvent", "FaultLog"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault occurrence.

    ``kind`` names the fault class (``"crash"``, ``"restart"``,
    ``"message_loss"``, ``"message_delay"``, ``"overhead_jitter"``,
    ``"result_corruption"``, ``"life_drift"``, ``"retry"``); ``detail``
    carries kind-specific scalars (delay, factor, attempt number, ...).
    """

    time: float
    kind: str
    ws_id: int
    detail: tuple[tuple[str, float], ...] = ()

    @classmethod
    def make(
        cls, time: float, kind: str, ws_id: int,
        detail: Optional[Mapping[str, float]] = None,
    ) -> "FaultEvent":
        """Build an event with the detail mapping canonicalized (sorted)."""
        items = tuple(sorted((str(k), float(v)) for k, v in (detail or {}).items()))
        return cls(time=float(time), kind=str(kind), ws_id=int(ws_id), detail=items)

    def as_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "kind": self.kind,
            "ws_id": self.ws_id,
            "detail": dict(self.detail),
        }


@dataclass
class FaultLog:
    """An append-only record of injected fault events, in injection order."""

    events: list[FaultEvent] = field(default_factory=list)

    def record(
        self, time: float, kind: str, ws_id: int,
        detail: Optional[Mapping[str, float]] = None,
    ) -> FaultEvent:
        """Append one event and return it."""
        if detail:
            event = FaultEvent.make(time, kind, ws_id, detail)
        else:  # crashes and restarts: nothing to canonicalize
            event = FaultEvent(float(time), kind, int(ws_id))
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def by_kind(self, kind: str) -> list[FaultEvent]:
        """All events of one fault class, in injection order."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> dict[str, int]:
        """Event count per fault class."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def as_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready list of event dicts (stable field order)."""
        return [e.as_dict() for e in self.events]

    def digest(self) -> str:
        """SHA-256 over the canonical serialization — the determinism witness.

        Floats are rendered via ``float.hex`` so the digest is exact, not
        repr-rounded; two logs share a digest iff they are bit-identical.
        """
        h = hashlib.sha256()
        for e in self.events:
            h.update(
                json.dumps(
                    [e.time.hex(), e.kind, e.ws_id,
                     [[k, v.hex()] for k, v in e.detail]],
                    separators=(",", ":"),
                ).encode()
            )
        return h.hexdigest()
