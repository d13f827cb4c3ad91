"""Seeded, composable fault plans for the NOW farm (the chaos harness).

The paper's draconian model admits exactly one adversity: the owner returns
and kills the in-flight period.  Real networks of workstations add more —
machines crash and restart, dispatch messages are lost or arrive late, the
per-period overhead ``c`` jitters with network load, results come back
corrupted, and the life function the master fitted last week drifts under its
feet.  A :class:`FaultPlan` composes any subset of these as declarative,
frozen injector specs; :meth:`FaultPlan.start` instantiates a
:class:`FaultRuntime` that the farm simulator consults at its hook points.

Reproducibility contract
------------------------
* The runtime draws from its **own** seeded generators (one independent
  stream per fault class), never from the farm's owner-process generator:
  enabling or disabling an injector cannot perturb the owner timeline, and a
  run is bit-reproducible from ``(seed, plan, workload)``.
* Every injected occurrence is recorded in a structured
  :class:`~repro.faults.log.FaultLog`, whose
  :meth:`~repro.faults.log.FaultLog.digest` certifies determinism.
* A plan with no injectors is *null*: the instrumented farm run is
  bit-identical to an uninstrumented one (differentially tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..exceptions import FaultPlanError
from .log import FaultLog

__all__ = [
    "CrashFault",
    "MessageLossFault",
    "MessageDelayFault",
    "OverheadJitterFault",
    "ResultCorruptionFault",
    "LifeDriftFault",
    "Injector",
    "DispatchFate",
    "FaultPlan",
    "FaultRuntime",
]


# ----------------------------------------------------------------------
# Injector specifications (declarative, frozen)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrashFault:
    """Workstations crash (Poisson, mean time between failures ``mtbf``) and
    restart ``restart_time`` later.  A crash kills the in-flight period — the
    work is lost exactly as under an owner reclaim — and the workstation
    accepts no dispatches until it restarts."""

    mtbf: float
    restart_time: float = 1.0

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise FaultPlanError(f"crash mtbf must be positive, got {self.mtbf}")
        if self.restart_time < 0:
            raise FaultPlanError(
                f"restart_time must be nonnegative, got {self.restart_time}"
            )


@dataclass(frozen=True)
class MessageLossFault:
    """Each dispatch message is lost with probability ``prob``.  The bundle
    never reaches the workstation; the master only notices via its
    per-dispatch timeout (see :class:`repro.now.farm.RetryPolicy`)."""

    prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise FaultPlanError(f"loss prob must lie in [0, 1], got {self.prob}")


@dataclass(frozen=True)
class MessageDelayFault:
    """With probability ``prob`` a dispatch is delayed by an exponential
    extra latency of mean ``delay_mean`` before the period can start."""

    prob: float
    delay_mean: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise FaultPlanError(f"delay prob must lie in [0, 1], got {self.prob}")
        if self.delay_mean <= 0:
            raise FaultPlanError(
                f"delay_mean must be positive, got {self.delay_mean}"
            )


@dataclass(frozen=True)
class OverheadJitterFault:
    """Per-period overhead jitter ``c ~ D``: each dispatch pays
    ``c * exp(sigma * Z)`` with ``Z ~ N(0, 1)`` (lognormal multiplicative
    noise, median ``c``, mean ``c * exp(sigma^2 / 2)``)."""

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise FaultPlanError(f"jitter sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class ResultCorruptionFault:
    """A completed period's results are corrupted with probability ``prob``:
    the bundle's tasks return to the pool and the period's work is wasted."""

    prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise FaultPlanError(f"corruption prob must lie in [0, 1], got {self.prob}")


@dataclass(frozen=True)
class LifeDriftFault:
    """Mid-run life-function drift: from time ``at_fraction * horizon`` on,
    true absence durations are scaled by ``scale`` while the master keeps
    scheduling with its stale estimate (the misestimation scenario of
    :mod:`repro.analysis.robustness`, injected live)."""

    at_fraction: float = 0.5
    scale: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise FaultPlanError(
                f"at_fraction must lie in [0, 1], got {self.at_fraction}"
            )
        if self.scale <= 0:
            raise FaultPlanError(f"drift scale must be positive, got {self.scale}")


Injector = Union[
    CrashFault,
    MessageLossFault,
    MessageDelayFault,
    OverheadJitterFault,
    ResultCorruptionFault,
    LifeDriftFault,
]

_INJECTOR_TYPES = (
    CrashFault,
    MessageLossFault,
    MessageDelayFault,
    OverheadJitterFault,
    ResultCorruptionFault,
    LifeDriftFault,
)

#: Independent RNG sub-stream per fault class (spawn keys off the plan seed),
#: so enabling one injector never perturbs another's draws.
_STREAMS = {
    "crash": 0,
    "dispatch": 1,
    "commit": 2,
    "retry": 3,
}


@dataclass(frozen=True)
class DispatchFate:
    """What the fault layer decided about one dispatch message."""

    lost: bool = False
    delay: float = 0.0
    c_effective: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.lost and self.delay == 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, composable set of fault injectors.

    ``FaultPlan(seed=7, injectors=(MessageLossFault(0.3),))`` is a complete,
    serializable description of the adversity to inject; pass it to
    :func:`repro.now.farm.run_farm` via ``faults=``.  At most one injector
    per fault class is allowed (compose severities by constructing a new
    plan, not by stacking duplicates).
    """

    seed: int = 0
    injectors: tuple[Injector, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "injectors", tuple(self.injectors))
        kinds = [type(inj) for inj in self.injectors]
        for inj in self.injectors:
            if not isinstance(inj, _INJECTOR_TYPES):
                raise FaultPlanError(
                    f"unknown injector {inj!r}; expected one of "
                    f"{[t.__name__ for t in _INJECTOR_TYPES]}"
                )
        if len(set(kinds)) != len(kinds):
            raise FaultPlanError("at most one injector per fault class")

    @property
    def is_null(self) -> bool:
        """Whether this plan injects nothing at all."""
        return not self.injectors

    def get(self, injector_type: type) -> Optional[Injector]:
        """The plan's injector of one class, or ``None``."""
        for inj in self.injectors:
            if isinstance(inj, injector_type):
                return inj
        return None

    def describe(self) -> dict:
        """JSON-ready description (class names and parameters)."""
        return {
            "seed": self.seed,
            "injectors": [
                {"kind": type(inj).__name__, **inj.__dict__}
                for inj in self.injectors
            ],
        }

    def start(self, ws_ids: Iterable[int], horizon: float) -> "FaultRuntime":
        """Instantiate the runtime for one farm run (fresh RNG streams, fresh log)."""
        return FaultRuntime(self, sorted(int(w) for w in ws_ids), float(horizon))


class FaultRuntime:
    """One farm run's live fault state: seeded streams, schedules, and log.

    Built by :meth:`FaultPlan.start`; consumed by
    :func:`repro.now.farm.run_farm` at its hook points.  All randomness comes
    from per-fault-class sub-streams of the plan seed, so the injected
    timeline for one fault class is invariant under toggling the others.
    """

    def __init__(self, plan: FaultPlan, ws_ids: Sequence[int], horizon: float) -> None:
        if horizon <= 0:
            raise FaultPlanError(f"horizon must be positive, got {horizon}")
        self.plan = plan
        self.horizon = horizon
        self.log = FaultLog()
        self._rngs = {
            name: np.random.default_rng([int(plan.seed), stream])
            for name, stream in _STREAMS.items()
        }
        self._crash = plan.get(CrashFault)
        self._loss = plan.get(MessageLossFault)
        self._delay = plan.get(MessageDelayFault)
        self._jitter = plan.get(OverheadJitterFault)
        self._corrupt = plan.get(ResultCorruptionFault)
        self._drift = plan.get(LifeDriftFault)
        self._drift_at = (
            self._drift.at_fraction * horizon if self._drift is not None else math.inf
        )
        self._drift_logged: set[int] = set()
        self._crash_schedule = self._generate_crashes(ws_ids)

    # ------------------------------------------------------------------
    # Crash schedule (pre-generated, deterministic per (seed, ws_id))
    # ------------------------------------------------------------------

    def _generate_crashes(
        self, ws_ids: Sequence[int]
    ) -> dict[int, list[tuple[float, float]]]:
        """Poisson crash times over the horizon, as (crash, restart) pairs.

        Workstations take turns on the ``"crash"`` stream, in ``ws_ids``
        order: each adds exponential gaps to its clock until it reaches the
        horizon.  Crashes landing inside a previous outage are dropped (a
        machine that is down cannot crash again), so outages never overlap.

        The gaps are drawn in blocks (a block of ``n`` draws takes the
        stream of ``n`` single draws) and summed with the same ``+=`` per
        gap; the stream is then reset and advanced past exactly the gaps
        used, where drawing one gap at a time would leave it.
        """
        if self._crash is None:
            return {ws: [] for ws in ws_ids}
        rng = self._rngs["crash"]
        mtbf = self._crash.mtbf
        restart_time = self._crash.restart_time
        horizon = self.horizon
        state = rng.bit_generator.state
        # ~horizon / mtbf + 1 gaps per workstation; short blocks double.
        size = min(int(1.25 * len(ws_ids) * (horizon / mtbf + 1.0)) + 64,
                   1 << 16)
        gaps = rng.exponential(mtbf, size).tolist()
        used = 0
        schedule: dict[int, list[tuple[float, float]]] = {}
        for ws in ws_ids:
            pairs: list[tuple[float, float]] = []
            t = up_at = 0.0
            while True:
                if used == size:
                    gaps += rng.exponential(mtbf, size).tolist()
                    size *= 2
                t += gaps[used]
                used += 1
                if t >= horizon:
                    break
                if t < up_at:
                    continue  # still down from the previous crash
                up_at = t + restart_time
                pairs.append((t, up_at))
            schedule[ws] = pairs
        rng.bit_generator.state = state
        rng.exponential(mtbf, used)
        return schedule

    def crash_schedule(self, ws_id: int) -> list[tuple[float, float]]:
        """The (crash time, restart time) outages planned for one workstation."""
        return list(self._crash_schedule.get(ws_id, []))

    def crash_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All planned outages flattened across workstations, as arrays.

        Returns ``(ws_ids, crash_times, restart_times)`` in sorted-host,
        chronological-per-host order — the order the farm seeds its event
        heap in, so a fleet engine can bulk-push the whole churn timeline
        without per-host Python loops.
        """
        ws_ids: list[int] = []
        crashes: list[float] = []
        restarts: list[float] = []
        for ws in sorted(self._crash_schedule):
            for crash_at, restart_at in self._crash_schedule[ws]:
                ws_ids.append(ws)
                crashes.append(crash_at)
                restarts.append(restart_at)
        return (
            np.asarray(ws_ids, dtype=np.int64),
            np.asarray(crashes, dtype=float),
            np.asarray(restarts, dtype=float),
        )

    def outage_time(self, ws_id: int, horizon: Optional[float] = None) -> float:
        """Total planned downtime for one workstation within the horizon."""
        end = self.horizon if horizon is None else float(horizon)
        total = 0.0
        for crash_at, restart_at in self._crash_schedule.get(ws_id, []):
            total += max(0.0, min(restart_at, end) - crash_at)
        return total

    # ------------------------------------------------------------------
    # Hook points (called by the farm in event order)
    # ------------------------------------------------------------------

    def dispatch_fate(self, ws_id: int, now: float, c: float) -> DispatchFate:
        """Decide loss / delay / effective overhead for one dispatch message."""
        rng = self._rngs["dispatch"]
        if self._loss is not None and self._loss.prob > 0.0:
            if float(rng.random()) < self._loss.prob:
                self.log.record(now, "message_loss", ws_id)
                return DispatchFate(lost=True, c_effective=c)
        delay = 0.0
        if self._delay is not None and self._delay.prob > 0.0:
            if float(rng.random()) < self._delay.prob:
                delay = float(rng.exponential(self._delay.delay_mean))
                self.log.record(now, "message_delay", ws_id, {"delay": delay})
        c_eff = c
        if self._jitter is not None and self._jitter.sigma > 0.0:
            factor = math.exp(self._jitter.sigma * float(rng.standard_normal()))
            c_eff = c * factor
            self.log.record(now, "overhead_jitter", ws_id, {"factor": factor})
        return DispatchFate(lost=False, delay=delay, c_effective=c_eff)

    def commit_corrupted(self, ws_id: int, now: float) -> bool:
        """Whether a completing period's results are corrupted."""
        if self._corrupt is None or self._corrupt.prob <= 0.0:
            return False
        if float(self._rngs["commit"].random()) < self._corrupt.prob:
            self.log.record(now, "result_corruption", ws_id)
            return True
        return False

    def absence_scale(self, ws_id: int, now: float) -> float:
        """Multiplier on the true absence duration drawn at episode start."""
        if self._drift is None or now < self._drift_at:
            return 1.0
        if ws_id not in self._drift_logged:
            self._drift_logged.add(ws_id)
            self.log.record(now, "life_drift", ws_id, {"scale": self._drift.scale})
        return self._drift.scale

    def drift_params(self) -> tuple[float, float]:
        """``(threshold time, scale)`` of the planned life drift.

        ``(inf, 1.0)`` when no drift fault is planned.  Lets bulk timeline
        planners (the fleet's batched core) bake the scaling into precomputed
        absence draws instead of calling :meth:`absence_scale` per value; the
        per-episode call is still required for its drift-log side effect.
        """
        if self._drift is None:
            return math.inf, 1.0
        return self._drift_at, self._drift.scale

    def retry_jitter(self) -> float:
        """A ``U[0, 1)`` draw for retry-backoff jitter (own stream)."""
        return float(self._rngs["retry"].random())

    def record_retry(self, ws_id: int, now: float, attempt: int, delay: float) -> None:
        """Log one scheduled dispatch retry (resilience, not adversity —
        recorded so chaos reports can audit the backoff behaviour)."""
        self.log.record(
            now, "retry", ws_id, {"attempt": float(attempt), "delay": delay}
        )
