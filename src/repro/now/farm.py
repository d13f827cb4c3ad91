"""Discrete-event simulation of a data-parallel task farm over a NOW.

The master (workstation A) owns a :class:`~repro.workloads.TaskPool` and
steals cycles from every workstation in the network.  When an owner leaves,
the master starts an episode: it repeatedly asks the workstation's policy for
the next period length, packs a FIFO task bundle into it, and dispatches.
A period that completes before the owner returns commits its bundle; the
owner's return instantly kills the in-flight period — its tasks go back to
the pool and its work is lost (the draconian contract of Section 1).

Event ordering implements the paper's accounting exactly: a reclaim at the
same instant a period ends *kills* the period ("if B is reclaimed **by** time
T_k"), so owner events carry higher priority than period completions.

Fault injection and resilience
------------------------------
``run_farm(faults=...)`` threads a seeded
:class:`~repro.faults.FaultPlan` through the event loop: workstations crash
and restart (killing in-flight work like a reclaim), dispatch messages are
lost or delayed, the per-period overhead jitters, committed results corrupt,
and the owners' life functions drift mid-run.  Every injected occurrence is
recorded in the returned :attr:`FarmResult.fault_log`; because the fault
runtime draws from its own seeded streams, a run is bit-reproducible from
``(seed, plan, workload)``, and a *null* plan (no injectors) leaves the
simulation bit-identical to an uninstrumented run.

``retry=`` adds the resilient dispatch path: a lost dispatch is detected
after :attr:`RetryPolicy.timeout` and retried under bounded exponential
backoff with deterministic jitter, up to :attr:`RetryPolicy.max_retries`
attempts per episode.  Crashes tear the episode down (outstanding work is
lost, the workstation accepts nothing while down) and dispatch resumes on
restart if the owner is still absent.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ..baselines.policies import EpisodeInfo, Policy
from ..core.life_functions import LifeFunction
from ..exceptions import SimulationError
from ..faults import FaultLog, FaultPlan, FaultRuntime
from ..workloads.packing import PackedPeriod, pack_period
from ..workloads.tasks import TaskPool
from .network import Network, Workstation

__all__ = ["WorkstationStats", "FarmResult", "RetryPolicy", "run_farm"]

# Event kinds, in tie-breaking priority order (lower wins at equal times).
# A crash at the same instant as any other event wins: the machine is gone
# before the master can commit, dispatch, or hand the owner back a seat.
_WS_CRASH = -1
_OWNER_RETURNS = 0
_OWNER_LEAVES = 1
_PERIOD_ENDS = 2
_WS_RESTART = 3
_RETRY_DISPATCH = 4


@dataclass(frozen=True)
class RetryPolicy:
    """Per-dispatch timeout + bounded exponential backoff with jittered retries.

    A lost dispatch is detected ``timeout`` after it was sent (the master's
    acknowledgement deadline); retry ``k`` then waits a further
    ``min(base_backoff * factor**k, max_backoff) * (1 - jitter * U)`` with
    ``U ~ U[0, 1)`` drawn from the fault runtime's dedicated stream, so the
    retry timeline is deterministic per ``(seed, plan)``.  At most
    ``max_retries`` retries are attempted per episode; after that the master
    idles until the next owner event.
    """

    timeout: float = 0.5
    base_backoff: float = 0.25
    factor: float = 2.0
    max_backoff: float = 4.0
    max_retries: int = 3
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout < 0:
            raise SimulationError(f"retry timeout must be nonnegative, got {self.timeout}")
        if self.base_backoff <= 0 or self.factor < 1.0:
            raise SimulationError(
                f"need base_backoff > 0 and factor >= 1, got "
                f"{self.base_backoff}, {self.factor}"
            )
        if self.max_backoff < self.base_backoff:
            raise SimulationError(
                f"max_backoff {self.max_backoff} below base_backoff {self.base_backoff}"
            )
        if self.max_retries < 0:
            raise SimulationError(f"max_retries must be nonnegative, got {self.max_retries}")
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError(f"jitter must lie in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, u: float = 0.0) -> float:
        """Wall-clock between a lost dispatch and retry number ``attempt``."""
        backoff = min(self.base_backoff * self.factor**attempt, self.max_backoff)
        return self.timeout + backoff * (1.0 - self.jitter * u)


@dataclass
class WorkstationStats:
    """Per-workstation accounting for one farm run."""

    ws_id: int
    episodes: int = 0
    periods_committed: int = 0
    periods_killed: int = 0
    tasks_completed: int = 0
    work_done: float = 0.0
    work_lost: float = 0.0
    overhead_paid: float = 0.0
    #: Absent time during which the master had nothing (or declined) to send.
    idle_absent_time: float = 0.0
    #: Injected-fault accounting (all zero without a fault plan).
    crashes: int = 0
    dispatches_lost: int = 0
    dispatches_delayed: int = 0
    delay_time: float = 0.0
    periods_corrupted: int = 0
    retries: int = 0


@dataclass(frozen=True)
class FarmResult:
    """Outcome of a farm run."""

    stats: dict[int, WorkstationStats]
    tasks_total: int
    tasks_completed: int
    #: Time the last task committed, or NaN if the workload never finished.
    completion_time: float
    horizon: float
    events_processed: int
    #: Structured record of injected faults (``None`` without a fault plan).
    fault_log: Optional[FaultLog] = None

    @property
    def finished(self) -> bool:
        return self.tasks_completed == self.tasks_total

    @property
    def total_work_done(self) -> float:
        return float(sum(s.work_done for s in self.stats.values()))

    @property
    def total_work_lost(self) -> float:
        return float(sum(s.work_lost for s in self.stats.values()))

    @property
    def total_overhead(self) -> float:
        return float(sum(s.overhead_paid for s in self.stats.values()))

    @property
    def total_crashes(self) -> int:
        return int(sum(s.crashes for s in self.stats.values()))

    @property
    def total_dispatches_lost(self) -> int:
        return int(sum(s.dispatches_lost for s in self.stats.values()))

    @property
    def total_periods_corrupted(self) -> int:
        return int(sum(s.periods_corrupted for s in self.stats.values()))

    @property
    def goodput(self) -> float:
        """Committed work per unit of horizon time, summed over workstations."""
        return self.total_work_done / self.horizon if self.horizon > 0 else 0.0


@dataclass
class _WsState:
    ws: Workstation
    policy: Policy
    stats: WorkstationStats
    absent: bool = False
    crashed: bool = False
    reclaim_at: float = math.inf
    episode_started_at: float = 0.0
    in_flight: Optional[PackedPeriod] = None
    period_epoch: int = 0  # invalidates stale period_end events
    episode_id: int = 0  # invalidates stale retry events
    retry_attempts: int = 0


def run_farm(
    network: Network,
    pool: TaskPool,
    policy_factory: Callable[[Workstation], Policy],
    horizon: float,
    rng: np.random.Generator,
    life_estimates: Optional[dict[int, LifeFunction]] = None,
    start_absent: bool = False,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> FarmResult:
    """Simulate the farm until the horizon, or until the workload completes.

    Parameters
    ----------
    network:
        The workstations and the per-period overhead ``c``.
    pool:
        Shared task pool (mutated in place: completed tasks move to
        ``pool.completed``).
    policy_factory:
        Builds one policy instance per workstation (policies are stateful).
    horizon:
        Simulated wall-clock limit.
    rng:
        Source of owner presence/absence randomness.
    life_estimates:
        Per-workstation life functions handed to policies via
        :class:`EpisodeInfo`; defaults to each owner's ``true_life``.
    start_absent:
        Start every owner absent (an immediate opportunity) instead of
        present — convenient for single-episode experiments.
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  Its runtime draws from
        its own seeded streams (never from ``rng``), records every injected
        event in :attr:`FarmResult.fault_log`, and — when the plan is null —
        leaves the run bit-identical to ``faults=None``.
    retry:
        Optional :class:`RetryPolicy` enabling the resilient dispatch path
        for lost messages (timeout + bounded, jittered exponential backoff).
    """
    if not 0 < horizon < math.inf:
        raise SimulationError(
            f"horizon must be positive and finite, got {horizon}"
        )
    tasks_total = pool.pending_count
    c = network.c
    runtime: Optional[FaultRuntime] = None
    if faults is not None:
        runtime = faults.start((ws.ws_id for ws in network.workstations), horizon)

    counter = itertools.count()
    heap: list[tuple[float, int, int, int, int]] = []  # (time, prio, seq, ws_id, epoch)

    def push(time: float, prio: int, ws_id: int, epoch: int = 0) -> None:
        heapq.heappush(heap, (time, prio, next(counter), ws_id, epoch))

    states: dict[int, _WsState] = {}
    for ws in network.workstations:
        policy = policy_factory(ws)
        state = _WsState(ws=ws, policy=policy, stats=WorkstationStats(ws.ws_id))
        states[ws.ws_id] = state
        if start_absent:
            push(0.0, _OWNER_LEAVES, ws.ws_id)
        else:
            push(ws.owner.next_present(rng), _OWNER_LEAVES, ws.ws_id)
    if runtime is not None:
        # Crash outages are pre-generated per workstation from the plan's own
        # stream; both endpoints go on the heap up front (they never overlap).
        for ws_id in sorted(states):
            for crash_at, restart_at in runtime.crash_schedule(ws_id):
                push(crash_at, _WS_CRASH, ws_id)
                push(restart_at, _WS_RESTART, ws_id)

    completion_time = math.nan
    events = 0

    def idle_until_reclaim(state: _WsState, now: float) -> None:
        state.stats.idle_absent_time += max(0.0, min(state.reclaim_at, horizon) - now)

    def dispatch(state: _WsState, now: float) -> None:
        """Try to send the next period to an absent workstation."""
        if state.crashed:
            return  # outage, not idleness: nothing can be sent until restart
        if pool.exhausted:
            idle_until_reclaim(state, now)
            return
        elapsed = now - state.episode_started_at
        planned = state.policy.next_period(elapsed)
        if planned is not None and planned <= 0.0:
            raise SimulationError(
                f"policy {type(state.policy).__name__} returned a non-positive "
                f"period length {planned!r} for workstation {state.ws.ws_id} "
                f"at elapsed {elapsed}; return None to decline dispatching"
            )
        if planned is None or planned <= c:
            idle_until_reclaim(state, now)
            return
        budget = (planned - c) * state.ws.speed
        bundle = pack_period(pool, c + budget, c)
        if bundle.empty:
            idle_until_reclaim(state, now)
            return
        c_eff, extra_delay = c, 0.0
        if runtime is not None:
            fate = runtime.dispatch_fate(state.ws.ws_id, now, c)
            if fate.lost:
                # The bundle never left the master; its tasks go straight
                # back.  The resilient path schedules a timed-out retry.
                pool.restore(list(bundle.tasks))
                state.stats.dispatches_lost += 1
                if retry is not None and state.retry_attempts < retry.max_retries:
                    wait = retry.delay(state.retry_attempts, runtime.retry_jitter())
                    state.retry_attempts += 1
                    state.stats.retries += 1
                    runtime.record_retry(
                        state.ws.ws_id, now, state.retry_attempts, wait
                    )
                    push(now + wait, _RETRY_DISPATCH, state.ws.ws_id, state.episode_id)
                else:
                    idle_until_reclaim(state, now)
                return
            c_eff = fate.c_effective
            extra_delay = fate.delay
            if extra_delay > 0.0:
                state.stats.dispatches_delayed += 1
                state.stats.delay_time += extra_delay
            if c_eff != c:
                bundle = replace(bundle, overhead=c_eff)
        state.retry_attempts = 0
        wall = c_eff + extra_delay + bundle.work / state.ws.speed
        state.in_flight = bundle
        state.period_epoch += 1
        push(now + wall, _PERIOD_ENDS, state.ws.ws_id, state.period_epoch)

    def kill_in_flight(state: _WsState) -> None:
        bundle = state.in_flight
        if bundle is None:
            return
        pool.restore(list(bundle.tasks))
        state.stats.periods_killed += 1
        state.stats.work_lost += bundle.work
        state.stats.overhead_paid += bundle.overhead
        state.in_flight = None
        state.period_epoch += 1  # invalidate the pending period_end event

    def teardown() -> None:
        """Return tasks still in flight when the run ends (horizon cut)."""
        for state in states.values():
            bundle = state.in_flight
            if bundle is not None:
                pool.restore(list(bundle.tasks))
                state.in_flight = None
                state.period_epoch += 1

    while heap:
        time, prio, _seq, ws_id, epoch = heapq.heappop(heap)
        if time > horizon:
            break
        events += 1
        state = states[ws_id]

        if prio == _WS_CRASH:
            # Crash-aware episode teardown: the draconian loss of a reclaim,
            # plus an outage window during which nothing can be dispatched.
            kill_in_flight(state)
            state.crashed = True
            state.stats.crashes += 1
            assert runtime is not None
            runtime.log.record(time, "crash", ws_id)

        elif prio == _WS_RESTART:
            state.crashed = False
            assert runtime is not None
            runtime.log.record(time, "restart", ws_id)
            if state.absent and time < state.reclaim_at and state.in_flight is None:
                dispatch(state, time)  # resume the interrupted episode

        elif prio == _OWNER_LEAVES:
            absence = state.ws.owner.next_absent(rng)
            if runtime is not None:
                absence *= runtime.absence_scale(ws_id, time)
            state.absent = True
            state.reclaim_at = time + absence
            state.episode_started_at = time
            state.episode_id += 1
            state.retry_attempts = 0
            state.stats.episodes += 1
            life = None
            if life_estimates is not None:
                life = life_estimates.get(ws_id)
            elif state.ws.owner.true_life is not None:
                life = state.ws.owner.true_life
            state.policy.start_episode(
                EpisodeInfo(c=c, life=life, reclaim_time=absence)
            )
            push(state.reclaim_at, _OWNER_RETURNS, ws_id)
            dispatch(state, time)

        elif prio == _OWNER_RETURNS:
            kill_in_flight(state)
            state.absent = False
            state.reclaim_at = math.inf
            push(time + state.ws.owner.next_present(rng), _OWNER_LEAVES, ws_id)

        elif prio == _RETRY_DISPATCH:
            # Stale if the episode ended, the machine is down, or a later
            # dispatch already succeeded.
            if (
                epoch != state.episode_id
                or not state.absent
                or state.crashed
                or state.in_flight is not None
            ):
                continue
            dispatch(state, time)

        else:  # _PERIOD_ENDS
            if epoch != state.period_epoch or state.in_flight is None:
                continue  # stale event from a killed period
            bundle = state.in_flight
            state.in_flight = None
            if runtime is not None and runtime.commit_corrupted(ws_id, time):
                # Results came back unusable: the work is wasted and its
                # tasks return to the pool for re-dispatch.
                pool.restore(list(bundle.tasks))
                state.stats.periods_corrupted += 1
                state.stats.work_lost += bundle.work
                state.stats.overhead_paid += bundle.overhead
                dispatch(state, time)
                continue
            pool.commit(bundle.tasks)
            state.stats.periods_committed += 1
            state.stats.tasks_completed += len(bundle.tasks)
            state.stats.work_done += bundle.work
            state.stats.overhead_paid += bundle.overhead
            if pool.exhausted and math.isnan(completion_time):
                no_inflight = all(s.in_flight is None for s in states.values())
                if no_inflight:
                    completion_time = time
                    break
            dispatch(state, time)

    teardown()
    return FarmResult(
        stats={ws_id: s.stats for ws_id, s in states.items()},
        tasks_total=tasks_total,
        tasks_completed=sum(s.stats.tasks_completed for s in states.values()),
        completion_time=completion_time,
        horizon=horizon,
        events_processed=events,
        fault_log=None if runtime is None else runtime.log,
    )
