"""Fleet benchmark harness: policy comparison, scalar baseline, parity gates.

Jobs shared by ``repro fleet`` and ``benchmarks/bench_fleet.py``:

* :func:`run_policy_comparison` — one :class:`~repro.now.fleet.FleetSpec`
  swept across the dispatch policies, with the
  :func:`~repro.now.fleet.mean_field_fleet` fixed-point prediction recorded
  against each simulation (relative makespan/goodput errors — à la Van
  Houdt's mean-field validation of stealing models);
* :func:`scalar_baseline` — the throughput yardstick: N independent
  ``run_farm`` calls over the same per-host workload shares and the *same*
  per-host RNG substreams, timed for simulated host-events/sec;
* :func:`parity_check` — the differential gate: an ``n = 1`` fleet must be
  bit-identical to ``run_farm`` on the shared-RNG contract — per-host
  stats, completion time, event count, goodput, the policy-call (dispatch
  log) trace, the committed task-id sequence, and the fault digest;
* :func:`cross_core_check` — the batched core must be bit-identical to the
  heap core; :func:`seeding_check` — the bulk-seeded host streams must be
  ``default_rng([seed, s, key])``'s; :func:`cycle_check` — a run must
  leave no reference cycles, since ``run_fleet`` pauses the cyclic
  garbage collector.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Optional, Sequence

import numpy as np

from ..baselines.policies import SchedulePolicy
from ..faults import (
    CrashFault,
    FaultPlan,
    LifeDriftFault,
    MessageDelayFault,
    MessageLossFault,
    OverheadJitterFault,
    ResultCorruptionFault,
)
from ..now.farm import run_farm
from ..now.fleet import (
    FLEET_CORES,
    FLEET_POLICIES,
    FleetPlan,
    FleetSpec,
    host_generators,
    host_network,
    host_rng,
    mean_field_fleet,
    plan_fleet_schedules,
    run_fleet,
)
from ..workloads.tasks import TaskPool

__all__ = [
    "fleet_workload",
    "auto_horizon",
    "run_policy_comparison",
    "scalar_baseline",
    "parity_check",
    "cross_core_check",
    "seeding_check",
    "cycle_check",
]

#: Dyadic default task duration: partial prefix sums are exact in binary
#: floating point, which is what makes range-packing vs per-task packing
#: bit-identical (the fleet module's exact-parity contract).
DEFAULT_TASK_DURATION = 0.03125
DEFAULT_WORK_PER_HOST = 128.0


def fleet_workload(
    n_hosts: int,
    work_per_host: float = DEFAULT_WORK_PER_HOST,
    task_duration: float = DEFAULT_TASK_DURATION,
) -> np.ndarray:
    """A constant-duration task array totalling ``n_hosts * work_per_host``."""
    if work_per_host <= 0 or task_duration <= 0:
        raise ValueError("work_per_host and task_duration must be positive")
    per_host = max(1, int(round(work_per_host / task_duration)))
    return np.full(int(n_hosts) * per_host, float(task_duration))


def auto_horizon(spec: FleetSpec, plan: FleetPlan, total_work: float) -> float:
    """A horizon comfortably past the mean-field makespan (4x, min 50)."""
    mf = mean_field_fleet(spec, plan, total_work, policy="sharing")
    makespan = mf["makespan"]
    if not math.isfinite(makespan) or makespan <= 0:
        return 1000.0
    return max(50.0, 4.0 * makespan)


def _relative_error(predicted: float, actual: float) -> Optional[float]:
    if not (math.isfinite(predicted) and math.isfinite(actual)) or actual == 0:
        return None
    return abs(predicted - actual) / abs(actual)


def run_policy_comparison(
    spec: FleetSpec,
    durations: np.ndarray,
    horizon: float,
    policies: Sequence[str] = FLEET_POLICIES,
    plan: Optional[FleetPlan] = None,
    grid: int = 9,
    faults: Optional[FaultPlan] = None,
    steal_fraction: float = 0.5,
    core: str = "batched",
    bucket_width: Optional[float] = None,
) -> dict:
    """Simulate every policy on one spec; record metrics + mean-field errors."""
    if plan is None:
        plan = plan_fleet_schedules(spec, grid=grid)
    total_work = float(np.sum(durations))
    record: dict = {
        "hosts": spec.n_hosts,
        "family": spec.family,
        "seed": spec.seed,
        "tasks": int(durations.size),
        "total_work": total_work,
        "horizon": horizon,
        "core": core,
        "policies": {},
    }
    for policy in policies:
        start = time.perf_counter()
        result = run_fleet(
            spec, durations, horizon, policy=policy, plan=plan, faults=faults,
            steal_fraction=steal_fraction, core=core, bucket_width=bucket_width,
        )
        seconds = time.perf_counter() - start
        mf = mean_field_fleet(spec, plan, total_work, policy=policy,
                              faults=faults)
        record["policies"][policy] = {
            "finished": result.finished,
            "makespan": result.completion_time,
            "goodput": result.goodput,
            "total_work_done": result.total_work_done,
            "total_work_lost": result.total_work_lost,
            "total_overhead": result.total_overhead,
            "steals": result.total_steals,
            "steal_rate": result.steal_rate,
            "episodes": int(np.sum(result.episodes)),
            "events": result.events_processed,
            "seconds": seconds,
            "events_per_sec": result.events_processed / seconds,
            "mean_field": {
                "makespan": mf["makespan"],
                "goodput": mf["goodput"],
                "steals": mf["steals"],
                "makespan_rel_error": _relative_error(
                    mf["makespan"], result.completion_time
                ),
                # Simulated long-run goodput is work over *completion* time
                # (the fleet idles after the pool drains).
                "goodput_rel_error": _relative_error(
                    mf["goodput"],
                    result.total_work_done / result.completion_time
                    if result.finished and result.completion_time > 0
                    else result.goodput,
                ),
            },
        }
    return record


def scalar_baseline(
    spec: FleetSpec,
    durations: np.ndarray,
    horizon: float,
    plan: Optional[FleetPlan] = None,
    grid: int = 9,
) -> dict:
    """Time N independent scalar ``run_farm`` calls over per-host shares.

    Each host gets the contiguous slice of ``durations`` the stealing
    policy's initial partition would give it, its planned schedule from the
    same :class:`FleetPlan`, and its own ``host_rng`` substream — the same
    seed contract the fleet honors, so events/sec is apples-to-apples.
    """
    if plan is None:
        plan = plan_fleet_schedules(spec, grid=grid)
    n = spec.n_hosts
    bounds = np.linspace(0, durations.size, n + 1).astype(int)
    events = 0
    tasks_done = 0
    work_done = 0.0
    start = time.perf_counter()
    for i in range(n):
        share = durations[bounds[i]: bounds[i + 1]]
        if share.size == 0:
            continue
        pool = TaskPool.from_durations(share)
        schedule = plan.schedule(i)
        result = run_farm(
            host_network(spec, i),
            pool,
            lambda ws: SchedulePolicy(schedule),
            horizon,
            host_rng(spec, i),
        )
        events += result.events_processed
        tasks_done += result.tasks_completed
        work_done += result.total_work_done
    seconds = time.perf_counter() - start
    return {
        "hosts": n,
        "events": events,
        "seconds": seconds,
        "events_per_sec": events / seconds if seconds > 0 else float("inf"),
        "tasks_completed": tasks_done,
        "work_done": work_done,
    }


# ----------------------------------------------------------------------
# The n = 1 differential parity gate
# ----------------------------------------------------------------------


class _RecordingPolicy(SchedulePolicy):
    """A SchedulePolicy that logs every ``next_period`` consultation."""

    def __init__(self, schedule, trace: list) -> None:
        super().__init__(schedule)
        self.trace = trace

    def next_period(self, elapsed):
        planned = super().next_period(elapsed)
        self.trace.append((elapsed, planned))
        return planned


def _default_parity_faults(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        injectors=(
            CrashFault(mtbf=60.0, restart_time=3.0),
            MessageLossFault(0.1),
            MessageDelayFault(0.15, 0.5),
            OverheadJitterFault(0.2),
            ResultCorruptionFault(0.08),
            LifeDriftFault(0.5, 0.6),
        ),
    )


def parity_check(
    seed: int = 7,
    family: str = "uniform",
    policies: Sequence[str] = FLEET_POLICIES,
    with_faults: bool = True,
    n_tasks: int = 2048,
    task_duration: float = 0.25,
    horizon: float = 1500.0,
    core: str = "batched",
) -> dict:
    """Differential gate: the n = 1 fleet must be bit-identical to run_farm.

    Returns ``{"ok": bool, "checks": int, "mismatches": [str, ...]}``; each
    mismatch string names the policy and the field that diverged.
    """
    spec = FleetSpec.homogeneous(1, family=family, seed=seed)
    plan = plan_fleet_schedules(spec, grid=9)
    durations = np.full(int(n_tasks), float(task_duration))
    faults = _default_parity_faults(seed + 1) if with_faults else None
    mismatches: list[str] = []
    checks = 0

    for policy in policies:
        fleet = run_fleet(
            spec, durations, horizon, policy=policy, plan=plan,
            faults=faults, record_log=True, core=core,
        )
        pool = TaskPool.from_durations(durations)
        trace: list = []
        farm = run_farm(
            host_network(spec, 0),
            pool,
            lambda ws: _RecordingPolicy(plan.schedule(0), trace),
            horizon,
            host_rng(spec, 0),
            faults=faults,
        )

        def check(name: str, fleet_value, farm_value) -> None:
            nonlocal checks
            checks += 1
            same = fleet_value == farm_value or (
                isinstance(fleet_value, float)
                and isinstance(farm_value, float)
                and math.isnan(fleet_value)
                and math.isnan(farm_value)
            )
            if not same:
                mismatches.append(
                    f"{policy}: {name} fleet={fleet_value!r} farm={farm_value!r}"
                )

        check("stats", fleet.stats_for(0), farm.stats[0])
        check("completion_time", fleet.completion_time, farm.completion_time)
        check("events_processed", fleet.events_processed, farm.events_processed)
        check("tasks_completed", fleet.tasks_completed, farm.tasks_completed)
        check("goodput", fleet.goodput, farm.goodput)
        fleet_trace = [
            (entry[2], entry[3])
            for entry in fleet.dispatch_log
            if entry[0] == "plan"
        ]
        check("dispatch_log", fleet_trace, trace)
        fleet_ids = [
            task_id
            for entry in fleet.dispatch_log
            if entry[0] == "commit"
            for lo, hi in entry[3]
            for task_id in range(lo, hi)
        ]
        check("committed_ids", fleet_ids, [t.task_id for t in pool.completed])
        if with_faults:
            check("fault_digest", fleet.fault_log.digest(), farm.fault_log.digest())

    return {"ok": not mismatches, "checks": checks, "mismatches": mismatches}


# ----------------------------------------------------------------------
# The batched-vs-heap cross-core differential gate
# ----------------------------------------------------------------------

#: One representative injector per fault class, exercised individually so a
#: cross-core divergence names the class that caused it.
_FAULT_CLASSES: tuple[tuple[str, tuple], ...] = (
    ("clean", ()),
    ("crash", (CrashFault(mtbf=45.0, restart_time=4.0),)),
    ("loss", (MessageLossFault(0.15),)),
    ("delay", (MessageDelayFault(0.2, 0.4),)),
    ("jitter", (OverheadJitterFault(0.3),)),
    ("corruption", (ResultCorruptionFault(0.1),)),
    ("drift", (LifeDriftFault(0.4, 0.5),)),
)

#: FleetResult per-host/stat fields the cross-core gate compares bit-for-bit.
_CORE_PARITY_FIELDS = (
    "episodes", "periods_committed", "periods_killed",
    "tasks_completed_per_host", "work_done", "work_lost", "overhead_paid",
    "idle_absent_time", "crashes", "dispatches_lost", "dispatches_delayed",
    "delay_time", "periods_corrupted", "steals_attempted",
    "steals_succeeded", "steal_wait",
)


def cross_core_check(
    seed: int = 7,
    family: str = "uniform",
    n_hosts: int = 16,
    policies: Sequence[str] = FLEET_POLICIES,
    n_tasks: int = 1024,
    task_duration: float = 0.25,
    horizon: float = 120.0,
    start_absent: bool = False,
    bucket_width: Optional[float] = None,
) -> dict:
    """Differential gate: ``core="batched"`` must be bit-identical to
    ``core="heap"`` — stats, completion, event count, dispatch-log trace
    (policy calls, steals, kills, commits in order), and fault digest — for
    every policy, clean and under each of the six fault classes.

    Returns ``{"ok": bool, "checks": int, "mismatches": [str, ...]}``.
    """
    spec = FleetSpec.homogeneous(int(n_hosts), family=family, seed=seed)
    plan = plan_fleet_schedules(spec, grid=9)
    durations = np.full(int(n_tasks), float(task_duration))
    mismatches: list[str] = []
    checks = 0

    for fault_name, injectors in _FAULT_CLASSES:
        for policy in policies:
            results = {}
            for core in ("heap", "batched"):
                faults = (
                    FaultPlan(seed=seed + 1, injectors=injectors)
                    if injectors else None
                )
                results[core] = run_fleet(
                    spec, durations, horizon, policy=policy, plan=plan,
                    faults=faults, record_log=True, core=core,
                    start_absent=start_absent,
                    bucket_width=bucket_width if core == "batched" else None,
                )
            a, b = results["heap"], results["batched"]
            tag = f"{fault_name}/{policy}"

            def check(name: str, same: bool) -> None:
                nonlocal checks
                checks += 1
                if not same:
                    mismatches.append(f"{tag}: {name}")

            for field in _CORE_PARITY_FIELDS:
                check(field, np.array_equal(getattr(a, field),
                                            getattr(b, field)))
            check("completion_time",
                  a.completion_time == b.completion_time
                  or (math.isnan(a.completion_time)
                      and math.isnan(b.completion_time)))
            check("events_processed",
                  a.events_processed == b.events_processed)
            check("tasks_completed", a.tasks_completed == b.tasks_completed)
            check("dispatch_log", a.dispatch_log == b.dispatch_log)
            if injectors:
                check("fault_digest",
                      a.fault_log.digest() == b.fault_log.digest())

    return {"ok": not mismatches, "checks": checks, "mismatches": mismatches}


def seeding_check(seed: int = 7) -> dict:
    """Differential gate: the fleet's bulk-seeded host streams must equal
    ``default_rng([seed, s, key])`` for the owner (``s = 0``) and steal
    (``s = 1``) streams.  The 2,048 keys straddle 2^32, so both the
    vectorized rows and the rows left to ``default_rng`` are checked.

    Returns ``{"ok": bool, "checks": int, "mismatches": [str, ...]}``.
    """
    keys = range(2**32 - 1024, 2**32 + 1024)
    mismatches: list[str] = []
    checks = 0
    for stream in (0, 1):
        for key, rng in zip(keys, host_generators(seed, stream, keys)):
            checks += 1
            scalar = np.random.default_rng([seed, stream, key])
            if rng.bit_generator.state != scalar.bit_generator.state:
                mismatches.append(f"stream {stream}: key {key}")
    return {"ok": not mismatches, "checks": checks, "mismatches": mismatches}


def cycle_check(
    seed: int = 7,
    n_hosts: int = 16,
    n_tasks: int = 1024,
    horizon: float = 120.0,
) -> dict:
    """Gate: no fleet run may leave cyclic garbage.

    ``run_fleet`` switches the cyclic collector off while it runs, which is
    free only while refcounting alone frees everything a run drops.  Every
    policy × core × fault class runs with ``record_log=True`` and its result
    dropped, under a paused collector.  With automatic collection off, all
    a run allocates stays in the youngest generation, so a ``gc.collect(0)``
    after each run finds that run's cycles without rescanning the process;
    a full ``gc.collect()`` at the end catches any that reach older objects.
    Both must find no unreachable objects.

    Returns ``{"ok": bool, "checks": int, "mismatches": [str, ...]}``.
    """
    spec = FleetSpec.homogeneous(int(n_hosts), seed=seed)
    plan = plan_fleet_schedules(spec, grid=9)
    durations = np.full(int(n_tasks), 0.25)
    mismatches: list[str] = []
    checks = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for fault_name, injectors in _FAULT_CLASSES:
            for policy in FLEET_POLICIES:
                for core in FLEET_CORES:
                    faults = (FaultPlan(seed=seed + 1, injectors=injectors)
                              if injectors else None)
                    run_fleet(spec, durations, horizon, policy=policy,
                              plan=plan, faults=faults, record_log=True,
                              core=core)
                    checks += 1
                    garbage = gc.collect(0)
                    if garbage:
                        mismatches.append(f"{fault_name}/{policy}/{core}: "
                                          f"{garbage} objects in cycles")
        checks += 1
        garbage = gc.collect()
        if garbage:
            mismatches.append(f"all runs: {garbage} objects in cycles")
    finally:
        if collecting:
            gc.enable()
    return {"ok": not mismatches, "checks": checks, "mismatches": mismatches}
