"""The fault-tolerant checkpointing analogue (Section 1 Remark, ref. [7]).

The paper notes its model "has applications ... other than scheduling single
episodes of cycle-stealing.  One important example is scheduling saves in a
fault-prone computing system, as studied in [7]" (Coffman, Flatto, Krenin,
*Scheduling saves in fault-tolerant computations*).

The mapping: a *save* costs ``c`` (the period-bracketing overhead); a failure
(the owner's "return") destroys all work since the last save; the failure
survival function is the life function.  One cycle-stealing episode = one
inter-failure epoch, and the expected work banked per epoch is exactly
``E(S; p)`` — so the paper's guidelines choose save intervals.

:func:`simulate_fault_prone_job` runs the full renewal process: epochs repeat
(fresh failure clock each time) until a job of ``total_work`` units has been
banked, measuring wall-clock completion time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.guidelines import guideline_schedule
from ..core.life_functions import LifeFunction
from ..core.schedule import Schedule
from ..exceptions import SimulationError

__all__ = ["save_schedule", "CheckpointRun", "simulate_fault_prone_job"]

#: Most epoch × period cells one block of failure epochs may span; bounds the
#: arrays a block builds to a few MB whatever the schedule length.
_BLOCK_CELLS = 1 << 20


def save_schedule(p_failure: LifeFunction, c_save: float, **kwargs) -> Schedule:
    """Guideline save intervals for failure-survival ``p_failure``.

    Thin wrapper over :func:`repro.core.guidelines.guideline_schedule`; each
    returned period is the compute time between consecutive saves (the save
    cost ``c_save`` is inside the period, per the episode model).
    """
    return guideline_schedule(p_failure, c_save, **kwargs).schedule


@dataclass(frozen=True)
class CheckpointRun:
    """Outcome of one simulated fault-prone job execution."""

    completion_time: float
    failures: int
    saves_committed: int
    work_lost: float


def simulate_fault_prone_job(
    p_failure: LifeFunction,
    c_save: float,
    total_work: float,
    schedule: Optional[Schedule] = None,
    rng: Optional[np.random.Generator] = None,
    max_epochs: int = 1_000_000,
) -> CheckpointRun:
    """Run a job of ``total_work`` units to completion under random failures.

    Each inter-failure epoch replays the (save-interval) schedule from its
    start — the renewal assumption: after a failure and restart the failure
    clock resets, so the same schedule is optimal again.  Within an epoch,
    work banks at each save point; a failure loses the work since the last
    save and costs the time actually elapsed.  A failure exactly at a save
    boundary ``T_i`` kills period ``i`` (the draconian tie rule).

    Random stream: one reclaim draw per epoch, in epoch order, and ``rng`` is
    left exactly where drawing the epochs one at a time would leave it, so a
    sequence of jobs on one generator sees the same failures.  Failures are
    drawn in blocks of 1, 1, 2, 4, ... epochs, one
    ``p_failure.sample_reclaim_times`` call per block, and each block is
    settled with array operations; if the job finishes inside a block,
    ``rng`` is restored to its state before the block and only the epochs
    used are drawn again.  This relies on a draw of ``n`` reclaim times
    taking the stream of ``n`` single draws, as the inverse-transform
    :meth:`LifeFunction.sample_reclaim_times` does.

    Raises
    ------
    SimulationError
        If ``total_work`` or ``c_save`` is not finite, the schedule banks no
        work per epoch (the job can never finish) or ``max_epochs`` is
        exceeded.
    """
    if not math.isfinite(total_work) or total_work <= 0:
        raise SimulationError(f"total_work must be finite and positive, got {total_work}")
    if not math.isfinite(c_save):
        raise SimulationError(f"c_save must be finite, got {c_save}")
    if rng is None:
        rng = np.random.default_rng(0)
    if schedule is None:
        schedule = save_schedule(p_failure, c_save)

    work_per_period = schedule.work_per_period(c_save)
    if float(work_per_period.sum()) <= 0.0:
        raise SimulationError("schedule banks no work per epoch; job cannot finish")
    boundaries = schedule.boundaries
    m = schedule.num_periods
    # The last save before period i, and each saved period's clock step.
    last_save = np.concatenate(([0.0], boundaries))
    steps = np.diff(last_save)

    # Carries between blocks.  Every running total below is a sequential
    # cumsum seeded with its carry, so it rounds exactly like ``+=`` per step.
    clock = banked = lost = 0.0
    failures = saves = done = 0
    while done < max_epochs:
        size = min(max(1, done), max(1, _BLOCK_CELLS // m), max_epochs - done)
        state = rng.bit_generator.state
        failure_at = np.asarray(p_failure.sample_reclaim_times(rng, size), dtype=float)
        # Periods saved per epoch; "left" kills period i on a failure exactly
        # at T_i, and k == m means the schedule ran out before the failure.
        k = np.searchsorted(boundaries, failure_at, side="left")
        ends = np.cumsum(k)
        # Schedule index of every saved period, epoch after epoch.
        period = np.arange(ends[-1]) - np.repeat(ends - k, k)
        tail = failure_at - last_save[k]
        banked_run = np.cumsum(np.concatenate(([banked], work_per_period[period])))
        # Each epoch's tail follows its saved periods on the clock.  A killed
        # epoch loses its tail, the partially paid save overhead included; an
        # exhausted one idles until the failure (past T_{m-1}, so the idle
        # time is positive) and loses nothing, never improvising beyond its
        # schedule.
        clock_run = np.cumsum(np.concatenate(([clock], np.insert(steps[period], ends, tail))))
        lost_run = np.cumsum(np.concatenate(([lost], np.where(k < m, tail, 0.0))))

        finished = np.flatnonzero(banked_run[1:] >= total_work)
        if finished.size:
            j = int(finished[0])  # the finishing save, in block order
            e = int(np.searchsorted(ends, j, side="right"))  # its epoch
            if e + 1 < size:
                rng.bit_generator.state = state
                p_failure.sample_reclaim_times(rng, e + 1)
            return CheckpointRun(
                completion_time=float(clock_run[j + e + 1]),
                failures=failures + e,
                saves_committed=saves + j + 1,
                work_lost=float(lost_run[e]),
            )
        clock, banked, lost = float(clock_run[-1]), float(banked_run[-1]), float(lost_run[-1])
        failures += size
        saves += int(ends[-1])
        done += size
    raise SimulationError(f"job did not finish within {max_epochs} epochs")
