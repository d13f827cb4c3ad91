"""The ``fleet-steal`` workload: one 10k-host draconian fleet under churn.

10,000 heterogeneous uniform-family hosts (``FleetSpec.heterogeneous``)
share 5.12M dyadic tasks under randomized steal-half, with
``CrashFault(mtbf=100, restart_time=2)`` churn and horizon 300.  Nearly
all time goes to the fleet event core; serving is idle.

One operation is ``FleetSpec`` → ``FleetResult``: ``plan_fleet_schedules``
then ``run_fleet``.  The set-up (spec + task array) is repeated before
every operation, outside its timing, so the set-up median spans the run.
The first operation of a run only warms up.  Every later one must finish,
conserve tasks and work, and repeat the first one's simulated counts
exactly, since the same seed fixes every random stream.
The n = 1 ``parity_check`` and the batched-vs-heap ``cross_core_check``
pass once at set-up, at their default small sizes.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional

import numpy as np

from repro.analysis.fleetbench import cross_core_check, fleet_workload, parity_check
from repro.faults import CrashFault, FaultPlan
from repro.now import fleet

from .core import Tracer, frac, median, operation_metrics, patched, self_times

N_HOSTS = 10_000
WORK_PER_HOST = 16.0  #: 512 tasks of 1/32 per host, 5.12M in all
HORIZON = 300.0
FAMILY = "uniform"
TRACED_RUNS = 2


def make_inputs(seed: int) -> tuple[fleet.FleetSpec, np.ndarray]:
    spec = fleet.FleetSpec.heterogeneous(N_HOSTS, family=FAMILY, seed=seed)
    return spec, fleet_workload(N_HOSTS, WORK_PER_HOST)


def one_run(spec: fleet.FleetSpec, durations: np.ndarray, seed: int) -> fleet.FleetResult:
    plan = fleet.plan_fleet_schedules(spec)
    faults = FaultPlan(seed=seed, injectors=(CrashFault(mtbf=100.0, restart_time=2.0),))
    return fleet.run_fleet(spec, durations, HORIZON, policy="stealing", plan=plan,
                           faults=faults)


def digest(result: fleet.FleetResult) -> str:
    """Every simulated count of a run; equal digests mean equal simulations."""
    h = hashlib.sha256()
    for name in ("episodes", "periods_committed", "periods_killed",
                 "tasks_completed_per_host", "work_done", "work_lost", "crashes",
                 "steals_attempted", "steals_succeeded"):
        h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    h.update(repr((result.events_processed, result.completion_time,
                   result.tasks_completed)).encode())
    return h.hexdigest()


def broken(result: fleet.FleetResult, durations: np.ndarray) -> list[str]:
    """Invariants a finished run must keep."""
    problems = []
    if not result.finished:
        problems.append("run did not finish")
    if int(np.sum(result.tasks_completed_per_host)) != durations.size:
        problems.append("tasks not conserved")
    if result.total_work_done != float(durations.sum()):
        problems.append("work not conserved")
    return problems


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> dict:
    setups = []

    def set_up() -> tuple[fleet.FleetSpec, np.ndarray]:
        start = time.perf_counter()
        inputs = make_inputs(seed)
        setups.append(time.perf_counter() - start)
        return inputs

    spec, durations = set_up()
    gates = [parity_check(), cross_core_check()]
    failed = sum(not g["ok"] for g in gates)

    first = one_run(spec, durations, seed)
    expected = digest(first)
    results = []
    baseline_s = None
    if tracer is not None:
        start = time.perf_counter()
        results.append(one_run(spec, durations, seed))
        baseline_s = time.perf_counter() - start

    targets = [
        (fleet, "plan_fleet_schedules", "fleet.plan", None),
        (fleet, "run_fleet", "fleet.run", None),
        (fleet, "family_bracket_batch", "bounds.bracket", None),
        (fleet, "generate_schedules_hetero", "hetero.generate",
         lambda a, k: {"lanes": len(a[3])}),
    ] if tracer is not None else []
    walls = []
    with patched(tracer, targets):
        if tracer is not None:
            with tracer.span("fleet.spec"):
                make_inputs(seed)
        budget_end = time.perf_counter() + seconds
        while len(walls) < 3 or time.perf_counter() + median(walls) < budget_end:
            spec, durations = set_up()
            start = time.perf_counter()
            result = one_run(spec, durations, seed)
            walls.append(time.perf_counter() - start)
            results.append(result)
            if tracer is not None and len(walls) == TRACED_RUNS:
                break

    results.insert(0, first)
    for result in results:
        if broken(result, durations) or digest(result) != expected:
            failed += 1
    e2e, p99_is = operation_metrics(setups, walls, durations.size)
    out = {
        "attempted": len(gates) + len(results),
        "failed": failed,
        "e2e": e2e,
        "notes": {
            "runs": len(walls),
            "p99_ms_is": p99_is,
            "sat_qps_counts": "tasks completed per second",
            "tasks": int(durations.size),
            "hosts": N_HOSTS,
            "gate_checks": sum(g["checks"] for g in gates),
        },
    }
    if tracer is not None:
        out["layers"] = _layers(tracer, first, baseline_s, e2e["run_s"])
    return out


def _layers(tracer: Tracer, result: fleet.FleetResult, baseline_s: float,
            run_s: float) -> dict:
    own = self_times(tracer.spans)
    runs = tracer.named("fleet.run")
    plans = tracer.named("fleet.plan")
    committed = int(np.sum(result.periods_committed))
    killed = int(np.sum(result.periods_killed))
    attempted = int(np.sum(result.steals_attempted))
    run_fleet_s = median([s.duration for s in runs])
    return {
        "fleet.spec_s": tracer.busy("fleet.spec"),
        "fleet.plan_s": median([s.duration for s in plans]),
        "fleet.plan_self_s": median([own[s.sid] for s in plans]),
        "fleet.run_s": run_fleet_s,
        "fleet.events": result.events_processed,
        "fleet.events_per_s": result.events_processed / run_fleet_s,
        "fleet.commit_frac": frac(committed, committed + killed),
        "fleet.steals_attempted": attempted,
        "fleet.steal_success_frac": frac(int(np.sum(result.steals_succeeded)), attempted),
        "fleet.work_lost_frac": frac(result.total_work_lost,
                                     result.total_work_done + result.total_work_lost),
        "fleet.crashes": int(np.sum(result.crashes)),
        "fleet.sim_makespan": result.completion_time,
        "bounds.bracket_s": tracer.busy("bounds.bracket"),
        "hetero.busy_s": tracer.busy("hetero.generate"),
        "hetero.lanes": sum(s.attrs["lanes"] for s in tracer.named("hetero.generate")),
        "trace.overhead_frac": run_s / baseline_s - 1.0,
    }
