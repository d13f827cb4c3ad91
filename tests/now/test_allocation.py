"""Multi-workstation selection by long-run steal rate."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import SimulationError
import numpy as np

from repro.now.allocation import (
    StationProfile,
    episode_value,
    estimate_episode_value,
    estimate_steal_rate,
    select_stations,
    steal_rate,
)
from repro.simulation import simulate_episodes_scalar


def _profile(ws_id, life, present=10.0, speed=1.0):
    return StationProfile(ws_id=ws_id, life=life, mean_present=present, speed=speed)


class TestEpisodeValue:
    def test_matches_guideline_expected_work(self):
        p = repro.UniformRisk(100.0)
        prof = _profile(0, p)
        value = episode_value(prof, 2.0)
        direct = repro.guideline_schedule(p, 2.0, grid=65).expected_work
        assert value == pytest.approx(direct, rel=1e-9)

    def test_speed_scales_value(self):
        p = repro.UniformRisk(100.0)
        slow = episode_value(_profile(0, p, speed=1.0), 2.0)
        fast = episode_value(_profile(0, p, speed=2.0), 2.0)
        assert fast == pytest.approx(2.0 * slow)

    def test_hopeless_station_is_zero(self):
        # Overhead exceeds the whole opportunity window.
        p = repro.UniformRisk(1.0)
        assert episode_value(_profile(0, p), 2.0) == 0.0


class TestStealRate:
    def test_renewal_reward_formula(self):
        p = repro.UniformRisk(100.0)
        prof = _profile(0, p, present=30.0)
        rate = steal_rate(prof, 2.0)
        expected = episode_value(prof, 2.0) / (30.0 + 50.0)  # mean absent = L/2
        assert rate == pytest.approx(expected, rel=1e-6)

    def test_rarely_absent_owner_rates_low(self):
        p = repro.UniformRisk(100.0)
        often = steal_rate(_profile(0, p, present=5.0), 2.0)
        rarely = steal_rate(_profile(1, p, present=500.0), 2.0)
        assert often > rarely


class TestMonteCarloEstimators:
    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_episode_value_consistent_with_analytic(self, engine):
        """The estimate, and (same seed) the scalar oracle's mean work x speed."""
        p = repro.UniformRisk(100.0)
        prof = _profile(0, p, speed=2.0)
        est = estimate_episode_value(prof, 2.0, n=40_000, rng=np.random.default_rng(5))
        if engine == "scalar":
            schedule = repro.guideline_schedule(p, 2.0, grid=65).schedule
            work = simulate_episodes_scalar(
                schedule, p, 2.0, 40_000, np.random.default_rng(5)
            ).work
            assert est.mean == float(work.sum()) / 40_000 * 2.0
        assert est.consistent_with(episode_value(prof, 2.0))
        assert est.stderr > 0.0

    def test_steal_rate_consistent_with_analytic(self):
        p = repro.UniformRisk(100.0)
        prof = _profile(0, p, present=25.0)
        est = estimate_steal_rate(prof, 2.0, n=40_000, rng=np.random.default_rng(6))
        assert est.consistent_with(steal_rate(prof, 2.0))

    def test_unschedulable_station_worth_zero(self):
        # beta <= 1 log-logistic: tail too heavy to bracket -> scheduler refuses.
        from repro.core.life_functions import LogLogisticLife

        prof = _profile(0, LogLogisticLife(alpha=15.0, beta=0.8))
        est = estimate_episode_value(prof, 1.0, n=100)
        assert est.mean == 0.0 and est.stderr == 0.0
        assert episode_value(prof, 1.0) == 0.0


class TestSelection:
    def test_picks_best_by_rate(self):
        profiles = [
            _profile(0, repro.UniformRisk(100.0), present=10.0),       # good
            _profile(1, repro.UniformRisk(100.0), present=1000.0),     # rare
            _profile(2, repro.UniformRisk(100.0), present=10.0, speed=3.0),  # best
            _profile(3, repro.UniformRisk(5.0), present=10.0),         # tiny window
        ]
        picked = select_stations(profiles, c=2.0, budget=2)
        assert [prof.ws_id for prof, _ in picked] == [2, 0]
        rates = [rate for _, rate in picked]
        assert rates[0] >= rates[1]

    def test_budget_validation(self):
        with pytest.raises(SimulationError):
            select_stations([], c=1.0, budget=0)

    def test_profile_validation(self):
        with pytest.raises(SimulationError):
            _profile(0, repro.UniformRisk(10.0), present=0.0)
        with pytest.raises(SimulationError):
            _profile(0, repro.UniformRisk(10.0), speed=-1.0)
