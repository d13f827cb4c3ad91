"""The ``ckpt-renewal`` workload: guideline save intervals, simulated.

The Section 1 Remark maps cycle-stealing onto saves in a fault-prone
computation: a save costs ``c``, a failure loses the work since the last
save, and the failure survival function is the life function.  For each
Section 4 family the guideline save schedule (``save_schedule``) drives a
``simulate_fault_prone_job`` renewal run of about 2,000 failure epochs, and
``estimate_expected_work`` runs 10⁶ Monte-Carlo episodes against the closed
form ``E(S; p)``.  This is the only workload where ``now.checkpointing``
and ``simulation`` do the work.

One operation is that whole round over the four families.  The set-up
(the four guideline save schedules) is repeated before every round, so
its median spans the run.  Every round replays the same random streams,
so rounds differ only in timing.  Checks, untimed: the Monte-Carlo mean
lies within 4 standard errors of ``E(S; p)``, and the guided schedule
finishes the same job sooner than a too-fine and a too-coarse constant
save interval under the same failure draws.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.analysis.tables_precompute import TABLE_FAMILIES, make_family_life
from repro.core import optimizer
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.now import checkpointing
from repro.simulation import monte_carlo

from .core import Tracer, frac, median, operation_metrics, patched

#: family -> (swept parameter, save cost c) at the centre of the draws.
CENTRES = {"uniform": (200.0, 2.0), "poly": (200.0, 2.0),
           "geomdec": (1.2, 0.5), "geominc": (60.0, 1.0)}
JITTER = 1.03  #: parameters are drawn log-uniformly within a factor of this
EPOCHS = 2000  #: failure epochs per renewal job (job size = EPOCHS × E)
MC_EPISODES = 1_000_000
Z_LIMIT = 4.0
FINE, COARSE = 0.25, 3.0  #: useful-work share of the guided first period
#: A fixed-interval job that needs this many epochs counts as never finishing.
MAX_EPOCHS = 10 * EPOCHS
TRACED_ROUNDS = 5


def draw_points(seed: int) -> dict:
    """family -> (failure life function, save cost), jittered about CENTRES."""
    rng = np.random.default_rng([seed, 21])

    def jitter(x: float) -> float:
        return float(x * np.exp(rng.uniform(-math.log(JITTER), math.log(JITTER))))

    points = {}
    for family, (param, c) in CENTRES.items():
        p = make_family_life(family, jitter(param), TABLE_FAMILIES[family][1])
        points[family] = (p, jitter(c))
    return points


def constant_schedule(p, period: float, span: float) -> Schedule:
    """Equal save intervals of ``period`` covering ``span`` (or the lifespan)."""
    end = p.lifespan if math.isfinite(p.lifespan) else span
    return Schedule([period] * max(1, math.ceil(end / period)))


def one_round(points: dict, schedules: dict, seed: int) -> tuple[dict, dict]:
    jobs, estimates = {}, {}
    for k, (family, (p, c)) in enumerate(points.items()):
        s, ew = schedules[family]
        jobs[family] = checkpointing.simulate_fault_prone_job(
            p, c, EPOCHS * ew, s, np.random.default_rng([seed, 22, k]))
        estimates[family] = monte_carlo.estimate_expected_work(
            s, p, c, n=MC_EPISODES, rng=np.random.default_rng([seed, 23, k]))
    return jobs, estimates


def interval_checks(points: dict, schedules: dict, seed: int) -> int:
    """Families where the guided schedule does not beat both fixed intervals."""
    bad = 0
    for k, (family, (p, c)) in enumerate(points.items()):
        s, ew = schedules[family]
        useful = float(s.periods[0]) - c
        times = []
        span = 2 * s.boundaries[-1]
        for sched in (s, constant_schedule(p, c + FINE * useful, span),
                      constant_schedule(p, c + COARSE * useful, span)):
            try:
                times.append(checkpointing.simulate_fault_prone_job(
                    p, c, EPOCHS * ew, sched, np.random.default_rng([seed, 22, k]),
                    max_epochs=MAX_EPOCHS,
                ).completion_time)
            except SimulationError:
                times.append(math.inf)
        if not times[0] < min(times[1:]):
            bad += 1
    return bad


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> dict:
    points = draw_points(seed)
    targets = [
        (checkpointing, "save_schedule", "guidelines.schedule", None),
        (optimizer, "optimize_t0_via_recurrence", "optimizer.search", None),
        (checkpointing, "simulate_fault_prone_job", "ckpt.job", None),
        (monte_carlo, "estimate_expected_work", "mc.estimate", None),
    ] if tracer is not None else []

    setups = []

    def set_up() -> dict:
        start = time.perf_counter()
        schedules = {}
        for family, (p, c) in points.items():
            s = checkpointing.save_schedule(p, c)
            schedules[family] = (s, s.expected_work(p, c))
        setups.append(time.perf_counter() - start)
        return schedules

    schedules = set_up()

    one_round(points, schedules, seed)  # warm-up
    baseline = []
    for _ in range(TRACED_ROUNDS if tracer is not None else 0):
        start = time.perf_counter()
        one_round(points, schedules, seed)
        baseline.append(time.perf_counter() - start)

    walls, rounds = [], []
    with patched(tracer, targets):
        if tracer is not None:
            for family, (p, c) in points.items():
                checkpointing.save_schedule(p, c)
        budget_end = time.perf_counter() + seconds
        while len(walls) < 3 or time.perf_counter() + median(walls) < budget_end:
            if tracer is None:
                schedules = set_up()
            start = time.perf_counter()
            rounds.append(one_round(points, schedules, seed))
            walls.append(time.perf_counter() - start)
            if tracer is not None and len(walls) == TRACED_ROUNDS:
                break

    failed = interval_checks(points, schedules, seed)
    zs = {}
    for family, (p, c) in points.items():
        est = rounds[-1][1][family]
        zs[family] = (est.mean - schedules[family][1]) / est.stderr
        failed += abs(zs[family]) > Z_LIMIT
    episodes = sum(j.failures + 1 for j in rounds[-1][0].values()) + MC_EPISODES * len(points)
    e2e, p99_is = operation_metrics(setups, walls, episodes)
    out = {
        "attempted": 2 * len(points) + len(rounds),
        "failed": int(failed),
        "e2e": e2e,
        "notes": {
            "rounds": len(walls),
            "p99_ms_is": p99_is,
            "sat_qps_counts": "failure epochs plus Monte-Carlo episodes per second",
            "z": zs,
        },
    }
    if tracer is not None:
        out["layers"] = _layers(tracer, rounds, median(baseline), e2e["run_s"])
    return out


def _layers(tracer: Tracer, rounds: list, baseline_s: float, run_s: float) -> dict:
    n = len(rounds)
    epochs = sum(j.failures + 1 for jobs, _ in rounds for j in jobs.values())
    searches = tracer.named("optimizer.search")
    ckpt_s = tracer.busy("ckpt.job")
    mc_s = tracer.busy("mc.estimate")
    return {
        "ckpt.busy_s": ckpt_s,
        "ckpt.epochs": epochs,
        "ckpt.saves": sum(j.saves_committed for jobs, _ in rounds for j in jobs.values()),
        "ckpt.us_per_epoch": frac(ckpt_s * 1e6, epochs),
        "mc.busy_s": mc_s,
        "mc.episodes_per_s": frac(n * len(rounds[0][1]) * MC_EPISODES, mc_s),
        "guidelines.schedule_s": tracer.busy("guidelines.schedule"),
        "guidelines.self_s": tracer.self_total("guidelines.schedule"),
        "optimizer.busy_s": tracer.busy("optimizer.search"),
        "optimizer.calls": len(searches),
        "optimizer.ms_per_call": frac(tracer.busy("optimizer.search") * 1e3, len(searches)),
        "trace.overhead_frac": run_s / baseline_s - 1.0,
    }
