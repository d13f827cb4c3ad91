"""The discrete-event NOW farm: conservation laws and policy behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.policies import (
    FixedChunkPolicy,
    GuidelinePolicy,
    OmniscientPolicy,
    SchedulePolicy,
)
from repro.core.life_functions import GeometricDecreasingLifespan, UniformRisk
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.now.farm import run_farm
from repro.now.network import Network, Workstation
from repro.now.owner import OwnerProcess
from repro.traces.synthetic import exponential_sampler
from repro.workloads.generators import uniform_tasks
from repro.workloads.tasks import TaskPool


def _network(n_ws: int, p, c: float = 1.0, present_mean: float = 10.0) -> Network:
    stations = [
        Workstation(i, OwnerProcess.from_life_function(p, present_mean))
        for i in range(n_ws)
    ]
    return Network(stations, c=c)


class TestConservation:
    def test_tasks_conserved(self, rng):
        p = GeometricDecreasingLifespan(1.2)
        net = _network(3, p)
        pool = TaskPool.from_durations(uniform_tasks(500, 0.5))
        result = run_farm(net, pool, lambda ws: GuidelinePolicy(), 500.0, rng)
        assert result.tasks_completed + pool.pending_count == 500
        assert len(pool.completed) == result.tasks_completed

    def test_work_accounting_consistent(self, rng):
        p = GeometricDecreasingLifespan(1.2)
        net = _network(2, p)
        pool = TaskPool.from_durations(uniform_tasks(400, 0.5))
        result = run_farm(net, pool, lambda ws: FixedChunkPolicy(4.0), 600.0, rng)
        assert result.total_work_done == pytest.approx(pool.completed_work)
        assert result.total_work_done == pytest.approx(0.5 * result.tasks_completed)

    def test_completion_detected(self, rng):
        p = GeometricDecreasingLifespan(1.1)
        net = _network(4, p, present_mean=2.0)
        pool = TaskPool.from_durations(uniform_tasks(50, 0.25))
        result = run_farm(net, pool, lambda ws: GuidelinePolicy(), 10_000.0, rng)
        assert result.finished
        assert not math.isnan(result.completion_time)
        assert result.completion_time <= 10_000.0

    def test_unfinished_has_nan_completion(self, rng):
        p = GeometricDecreasingLifespan(1.2)
        net = _network(1, p, present_mean=1000.0)  # owner almost always home
        pool = TaskPool.from_durations(uniform_tasks(10_000, 1.0))
        result = run_farm(net, pool, lambda ws: FixedChunkPolicy(3.0), 50.0, rng)
        assert not result.finished
        assert math.isnan(result.completion_time)

    def test_invalid_horizon(self, rng):
        net = _network(1, UniformRisk(10.0))
        with pytest.raises(SimulationError):
            run_farm(net, TaskPool(), lambda ws: FixedChunkPolicy(2.0), 0.0, rng)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, rng, horizon):
        net = _network(1, UniformRisk(10.0))
        pool = TaskPool.from_durations(uniform_tasks(10, 1.0))
        with pytest.raises(SimulationError,
                           match=f"horizon must be positive and finite, got {horizon}"):
            run_farm(net, pool, lambda ws: FixedChunkPolicy(2.0), horizon, rng)


class TestPolicies:
    def test_omniscient_never_loses_work(self, rng):
        p = UniformRisk(20.0)
        net = _network(2, p)
        pool = TaskPool.from_durations(uniform_tasks(2000, 0.25))
        result = run_farm(net, pool, lambda ws: OmniscientPolicy(), 300.0, rng)
        assert result.total_work_lost == 0.0
        assert result.total_work_done > 0.0

    def test_omniscient_beats_fixed_chunk(self, rng):
        p = UniformRisk(20.0)
        pool_a = TaskPool.from_durations(uniform_tasks(100_000, 0.25))
        pool_b = TaskPool.from_durations(uniform_tasks(100_000, 0.25))
        net_a = _network(2, p)
        net_b = _network(2, p)
        omni = run_farm(net_a, pool_a, lambda ws: OmniscientPolicy(), 2000.0,
                        np.random.default_rng(5))
        fixed = run_farm(net_b, pool_b, lambda ws: FixedChunkPolicy(4.0), 2000.0,
                         np.random.default_rng(5))
        assert omni.total_work_done > fixed.total_work_done

    def test_draconian_kill_returns_tasks(self, rng):
        """Killed periods restore their tasks; nothing vanishes."""
        p = UniformRisk(5.0)  # short windows: many kills
        net = _network(1, p, c=0.5)
        pool = TaskPool.from_durations(uniform_tasks(1000, 0.25))
        result = run_farm(
            net, pool, lambda ws: FixedChunkPolicy(6.0), 400.0, rng
        )
        stats = result.stats[0]
        assert stats.periods_killed > 0
        assert result.tasks_completed + pool.pending_count == 1000

    def test_schedule_policy_replays(self, rng):
        p = UniformRisk(50.0)
        net = _network(1, p, c=1.0, present_mean=1.0)
        pool = TaskPool.from_durations(uniform_tasks(10_000, 0.5))
        sched = Schedule([10.0, 8.0, 6.0])
        result = run_farm(net, pool, lambda ws: SchedulePolicy(sched), 200.0, rng)
        assert result.events_processed > 0
        stats = result.stats[0]
        assert stats.episodes >= 1

    def test_guideline_beats_bad_fixed_chunk(self):
        """The headline end-to-end claim: guideline sizing outperforms naive
        chunking on the same owner process."""
        p = UniformRisk(30.0)
        results = {}
        for name, factory in [
            ("guideline", lambda ws: GuidelinePolicy()),
            ("tiny", lambda ws: FixedChunkPolicy(1.5)),
            ("huge", lambda ws: FixedChunkPolicy(29.0)),
        ]:
            net = _network(3, p, c=1.0)
            pool = TaskPool.from_durations(uniform_tasks(200_000, 0.25))
            results[name] = run_farm(
                net, pool, factory, 3000.0, np.random.default_rng(11)
            ).total_work_done
        assert results["guideline"] > results["tiny"]
        assert results["guideline"] > results["huge"]


class TestNetworkValidation:
    def test_duplicate_ids_rejected(self):
        own = OwnerProcess.from_life_function(UniformRisk(10.0), 5.0)
        with pytest.raises(SimulationError):
            Network([Workstation(0, own), Workstation(0, own)], c=1.0)

    def test_empty_network_rejected(self):
        with pytest.raises(SimulationError):
            Network([], c=1.0)

    def test_negative_overhead_rejected(self):
        own = OwnerProcess.from_life_function(UniformRisk(10.0), 5.0)
        with pytest.raises(SimulationError):
            Network([Workstation(0, own)], c=-1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_overhead_rejected(self, c):
        own = OwnerProcess.from_life_function(UniformRisk(10.0), 5.0)
        with pytest.raises(SimulationError,
                           match=f"overhead c must be nonnegative and finite, got {c}"):
            Network([Workstation(0, own)], c=c)

    def test_bad_speed_rejected(self):
        own = OwnerProcess.from_life_function(UniformRisk(10.0), 5.0)
        with pytest.raises(SimulationError):
            Workstation(0, own, speed=0.0)

    @pytest.mark.parametrize("speed", [math.inf, math.nan, -2.0])
    def test_nonfinite_speed_rejected(self, speed):
        own = OwnerProcess.from_life_function(UniformRisk(10.0), 5.0)
        with pytest.raises(SimulationError):
            Workstation(0, own, speed=speed)

    def test_speed_scales_throughput(self):
        p = GeometricDecreasingLifespan(1.1)

        def run(speed):
            own = OwnerProcess.from_life_function(p, 5.0)
            net = Network([Workstation(0, own, speed=speed)], c=0.5)
            pool = TaskPool.from_durations(uniform_tasks(100_000, 0.25))
            return run_farm(
                net, pool, lambda ws: GuidelinePolicy(), 2000.0,
                np.random.default_rng(3),
            ).total_work_done

        assert run(2.0) > 1.5 * run(1.0)


class TestPolicyContract:
    def test_nonpositive_period_raises(self, rng):
        """A policy handing back t <= 0 is a contract violation the farm
        names explicitly instead of looping forever on zero-length periods."""

        class BrokenPolicy:
            def start_episode(self, info):
                pass

            def next_period(self, elapsed):
                return 0.0

        net = _network(1, UniformRisk(10.0))
        pool = TaskPool.from_durations(uniform_tasks(10, 0.5))
        with pytest.raises(SimulationError, match="non-positive"):
            run_farm(net, pool, lambda ws: BrokenPolicy(), 100.0, rng)

    def test_negative_period_raises(self, rng):
        class NegativePolicy:
            def start_episode(self, info):
                pass

            def next_period(self, elapsed):
                return -3.0

        net = _network(1, UniformRisk(10.0))
        pool = TaskPool.from_durations(uniform_tasks(10, 0.5))
        with pytest.raises(SimulationError, match="non-positive"):
            run_farm(net, pool, lambda ws: NegativePolicy(), 100.0, rng)

    def test_none_period_declines_quietly(self, rng):
        """None still means "decline": the episode idles, no error."""

        class DecliningPolicy:
            def start_episode(self, info):
                pass

            def next_period(self, elapsed):
                return None

        net = _network(1, UniformRisk(10.0))
        pool = TaskPool.from_durations(uniform_tasks(10, 0.5))
        result = run_farm(net, pool, lambda ws: DecliningPolicy(), 100.0, rng)
        assert result.tasks_completed == 0
