"""The start_absent fast path: single-episode experiments via the farm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.policies import SchedulePolicy
from repro.core.life_functions import UniformRisk
from repro.core.schedule import Schedule
from repro.now.farm import run_farm
from repro.now.network import Network, Workstation
from repro.now.owner import OwnerProcess
from repro.workloads.generators import uniform_tasks
from repro.workloads.tasks import TaskPool


def test_start_absent_gives_immediate_episode(rng):
    p = UniformRisk(50.0)
    net = Network(
        [Workstation(0, OwnerProcess.from_life_function(p, present_mean=1e9))],
        c=1.0,
    )
    pool = TaskPool.from_durations(uniform_tasks(1000, 0.5))
    sched = Schedule([10.0, 8.0])
    result = run_farm(
        net, pool, lambda ws: SchedulePolicy(sched), 60.0, rng, start_absent=True
    )
    # With a (practically) never-returning... no: absence IS sampled from p,
    # so the owner returns within 50; but the episode started at t = 0.
    stats = result.stats[0]
    assert stats.episodes == 1
    assert stats.periods_committed + stats.periods_killed >= 1


def test_start_absent_matches_analytic_expectation():
    """Averaged over many single-episode farms, banked work approaches
    E(S; p) — the farm agrees with the episode-level model."""
    p = UniformRisk(50.0)
    c = 1.0
    sched = Schedule([10.0, 8.0, 6.0])
    works = []
    for seed in range(300):
        net = Network(
            [Workstation(0, OwnerProcess.from_life_function(p, present_mean=1e9))],
            c=c,
        )
        # [10, 8, 6] banks at most 24 units (384 tasks); 1,024 never run dry.
        pool = TaskPool.from_durations(uniform_tasks(1_024, 0.0625))
        result = run_farm(
            net, pool, lambda ws: SchedulePolicy(sched), 1e6,
            np.random.default_rng(seed), start_absent=True,
        )
        assert not result.finished  # the pool size never binds
        works.append(result.total_work_done)
    mean = float(np.mean(works))
    analytic = sched.expected_work(p, c)
    stderr = float(np.std(works) / np.sqrt(len(works)))
    # Tasks quantize periods slightly (realized <= planned), so the farm can
    # only undershoot the continuous expectation; allow that bias plus noise.
    assert mean <= analytic + 4 * stderr
    assert mean >= analytic * 0.9 - 4 * stderr
