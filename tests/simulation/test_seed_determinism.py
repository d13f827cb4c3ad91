"""Seed-determinism regression: every public sampler/simulator is a pure
function of its generator state.

The RNG-consumption contract (documented on each function) is load-bearing:
the differential harness, the EV-MC reproduction tables, and the equality of
each NumPy engine with its scalar oracle all assume that an identical
``numpy.random.Generator`` seed yields identical outputs — per episode, not
just in distribution.  These tests pin that contract for both episode
engines, ``estimate_expected_work``, ``estimate_policy_work``, the farm-level
allocation estimators, and ``run_farm``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.guidelines import guideline_schedule
from repro.core.life_functions import GeometricDecreasingLifespan, UniformRisk
from repro.core.schedule import Schedule
from repro.now.allocation import StationProfile, estimate_episode_value
from repro.now.farm import run_farm
from repro.now.network import Network, Workstation
from repro.now.owner import OwnerProcess
from repro.simulation import (
    MCEstimate,
    estimate_expected_work,
    estimate_policy_work,
    simulate_episodes_scalar,
    simulate_episodes_vectorized,
    simulate_policy_episodes_vectorized,
)
from repro.workloads.generators import uniform_tasks
from repro.workloads.tasks import TaskPool

SEED = 20260806


def _gen() -> np.random.Generator:
    return np.random.default_rng(SEED)


def _scalar_estimate(s, p, c, n, rng) -> MCEstimate:
    """``estimate_expected_work``'s one-batch arithmetic over the scalar
    oracle's episodes."""
    work = simulate_episodes_scalar(s, p, c, n, rng).work
    mean = float(work.sum()) / n
    var = max(0.0, float(np.dot(work, work)) / n - mean * mean)
    return MCEstimate(mean=mean, stderr=math.sqrt(var / n), n=n)


def _vectorized_policy_estimate(policy, p, c, n, rng) -> MCEstimate:
    """``estimate_policy_work``'s arithmetic over the vectorized policy
    engine's episodes."""
    work = simulate_policy_episodes_vectorized(policy, p, c, n, rng).work
    return MCEstimate(mean=float(work.mean()),
                      stderr=float(work.std(ddof=1) / math.sqrt(n)), n=n)


#: Schedule estimates from each episode engine: the library's estimator (on
#: the NumPy engine) and the same arithmetic over the scalar oracle.
SCHEDULE_ESTIMATORS = {
    "vectorized": lambda s, p, c, n, rng: estimate_expected_work(s, p, c, n=n, rng=rng),
    "scalar": _scalar_estimate,
}

#: Policy estimates from each policy engine: the library's estimator (on
#: the scalar loop) and the same arithmetic over the vectorized unrolling.
POLICY_ESTIMATORS = {
    "scalar": lambda pol, p, c, n, rng: estimate_policy_work(pol, p, c, n=n, rng=rng),
    "vectorized": _vectorized_policy_estimate,
}


class TestEpisodeDeterminism:
    @pytest.mark.parametrize(
        "simulate", [simulate_episodes_vectorized, simulate_episodes_scalar],
        ids=["vectorized", "scalar"],
    )
    def test_same_seed_same_episodes(self, simulate):
        p = UniformRisk(80.0)
        s = Schedule([15.0, 12.0, 9.0, 6.0])
        a = simulate(s, p, 1.0, 5_000, _gen())
        b = simulate(s, p, 1.0, 5_000, _gen())
        np.testing.assert_array_equal(a.reclaim_times, b.reclaim_times)
        np.testing.assert_array_equal(a.work, b.work)
        np.testing.assert_array_equal(a.periods_completed, b.periods_completed)

    def test_engines_share_one_stream(self):
        """Same seed => the engines see the *same* reclaim times (the RNG
        contract: exactly one sample_reclaim_times(rng, n) call per batch)."""
        p = UniformRisk(80.0)
        s = Schedule([15.0, 12.0, 9.0])
        a = simulate_episodes_vectorized(s, p, 1.0, 3_000, _gen())
        b = simulate_episodes_scalar(s, p, 1.0, 3_000, _gen())
        np.testing.assert_array_equal(a.reclaim_times, b.reclaim_times)
        np.testing.assert_array_equal(a.work, b.work)


class TestEstimatorDeterminism:
    @pytest.mark.parametrize("engine", list(SCHEDULE_ESTIMATORS))
    def test_expected_work(self, engine):
        p = GeometricDecreasingLifespan(1.3)
        s = Schedule([4.0, 3.0, 2.0])
        a = SCHEDULE_ESTIMATORS[engine](s, p, 0.5, 20_000, _gen())
        b = SCHEDULE_ESTIMATORS[engine](s, p, 0.5, 20_000, _gen())
        assert (a.mean, a.stderr, a.n) == (b.mean, b.stderr, b.n)

    def test_expected_work_engine_equality(self):
        """The estimate equals the scalar oracle's (same seed)."""
        p = GeometricDecreasingLifespan(1.3)
        s = Schedule([4.0, 3.0, 2.0])
        a = estimate_expected_work(s, p, 0.5, n=20_000, rng=_gen())
        b = _scalar_estimate(s, p, 0.5, 20_000, _gen())
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    @pytest.mark.parametrize("engine", list(POLICY_ESTIMATORS))
    def test_policy_work(self, engine):
        p = UniformRisk(60.0)
        policy = lambda elapsed: 5.0 if elapsed < 50.0 else None
        a = POLICY_ESTIMATORS[engine](policy, p, 1.0, 4_000, _gen())
        b = POLICY_ESTIMATORS[engine](policy, p, 1.0, 4_000, _gen())
        assert (a.mean, a.stderr, a.n) == (b.mean, b.stderr, b.n)

    def test_policy_work_engine_equality(self):
        """The scalar-loop estimate equals the vectorized policy engine's."""
        p = UniformRisk(60.0)
        policy = lambda elapsed: 5.0 if elapsed < 50.0 else None
        a = estimate_policy_work(policy, p, 1.0, n=4_000, rng=_gen())
        b = _vectorized_policy_estimate(policy, p, 1.0, 4_000, _gen())
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_station_estimator(self):
        profile = StationProfile(ws_id=0, life=UniformRisk(120.0), mean_present=30.0)
        a = estimate_episode_value(profile, 2.0, n=20_000, rng=_gen())
        b = estimate_episode_value(profile, 2.0, n=20_000, rng=_gen())
        assert (a.mean, a.stderr) == (b.mean, b.stderr)
        schedule = guideline_schedule(profile.life, 2.0, grid=65).schedule
        c_ = _scalar_estimate(schedule, profile.life, 2.0, 20_000, _gen())
        assert (a.mean, a.stderr) == (c_.mean, c_.stderr)


class TestFarmDeterminism:
    def _run(self):
        p = GeometricDecreasingLifespan(1.2)
        stations = [
            Workstation(i, OwnerProcess.from_life_function(p, present_mean=10.0))
            for i in range(3)
        ]
        net = Network(stations, c=1.0)
        pool = TaskPool.from_durations(uniform_tasks(300, 0.5))
        from repro.baselines.policies import FixedChunkPolicy

        return run_farm(net, pool, lambda ws: FixedChunkPolicy(4.0), 400.0, _gen())

    def test_same_seed_same_farm_run(self):
        a = self._run()
        b = self._run()
        assert a.tasks_completed == b.tasks_completed
        assert a.events_processed == b.events_processed
        assert a.completion_time == b.completion_time or (
            np.isnan(a.completion_time) and np.isnan(b.completion_time)
        )
        for ws_id, stats in a.stats.items():
            other = b.stats[ws_id]
            assert stats.episodes == other.episodes
            assert stats.periods_committed == other.periods_committed
            assert stats.periods_killed == other.periods_killed
            assert stats.work_done == other.work_done
            assert stats.work_lost == other.work_lost
            assert stats.overhead_paid == other.overhead_paid
