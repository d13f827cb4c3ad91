"""Differential testing: the vectorized engine vs the scalar §2.1 oracle.

Every life-function family the library exports is swept through both engines
twice — once with a *shared* seed (bit-exact parity is required: same RNG
stream, same episode outcomes) and once with *independent* seeds (the two
sample means must agree statistically, and with the analytic eq. (2.1)).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.simulation.scalar import (
    simulate_episodes_scalar,
    simulate_policy_episodes_scalar,
)
from repro.simulation.testing import (
    DeterministicLife,
    assert_exact_parity,
    canonical_families,
    differential_policy_check,
    differential_schedule_check,
    reference_schedule,
    statistical_parity,
)
from repro.simulation.vectorized import (
    simulate_episodes_vectorized,
    simulate_policy_episodes_vectorized,
    unroll_policy,
)

FAMILIES = canonical_families()


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    """Every exported life-function family, one at a time."""
    return request.param, FAMILIES[request.param]


class TestExactParity:
    def test_schedule_engines_bit_identical(self, family):
        name, p = family
        c = 0.4
        schedule = reference_schedule(p, c)
        report = differential_schedule_check(
            schedule, p, c, n=4_000, seed=20260806, label=name
        )
        assert_exact_parity(report)
        assert report.max_abs_diff == 0.0

    def test_policy_engines_bit_identical(self, family):
        name, p = family
        c = 0.4
        median = float(p.inverse(0.5))

        def doubling(elapsed: float):
            # Elapsed-deterministic doubling policy scaled to the family.
            step = max(median / 8.0, 2.0 * c)
            k = 0
            total = 0.0
            while total < elapsed - 1e-12:
                total += step * 2.0**k
                k += 1
            t = step * 2.0**k
            return t if t < 64.0 * median else None

        report = differential_policy_check(
            doubling, p, c, n=2_000, seed=7, label=f"{name}-doubling"
        )
        assert_exact_parity(report)

    @pytest.mark.parametrize(
        "simulate",
        [simulate_policy_episodes_vectorized, simulate_policy_episodes_scalar],
        ids=["vectorized", "scalar"],
    )
    def test_policy_that_declines_immediately(self, simulate):
        """A policy that returns ``None`` at elapsed 0 banks nothing."""
        batch = simulate(lambda elapsed: None, FAMILIES["uniform"], 1.0, 50,
                         rng=np.random.default_rng(1))
        assert batch.n == 50
        np.testing.assert_array_equal(batch.work, np.zeros(50))
        np.testing.assert_array_equal(batch.periods_completed,
                                      np.zeros(50, dtype=np.intp))

    def test_single_period_schedule(self, family):
        name, p = family
        schedule = Schedule([float(p.inverse(0.5))])
        report = differential_schedule_check(schedule, p, 0.1, n=2_000, seed=3)
        assert_exact_parity(report)

    def test_overhead_exceeding_some_periods(self, family):
        """Periods with t <= c bank zero work in both engines alike."""
        name, p = family
        median = float(p.inverse(0.5))
        c = median / 4.0
        schedule = Schedule([median / 2.0, c / 2.0, median / 2.0, c, median / 3.0])
        report = differential_schedule_check(schedule, p, c, n=2_000, seed=11)
        assert_exact_parity(report)


class TestStatisticalParity:
    def test_independent_seeds_agree(self, family):
        """Within 4 combined SE of each other and of the analytic E (eq. 2.1)."""
        name, p = family
        c = 0.4
        schedule = reference_schedule(p, c)
        z_engines, z_analytic = statistical_parity(schedule, p, c, n=30_000)
        assert z_engines < 4.0, f"{name}: engine means differ by {z_engines:.2f} SE"
        assert z_analytic < 4.0, f"{name}: vectorized mean off eq.(2.1) by {z_analytic:.2f} SE"


class TestDraconianTieBreak:
    """A reclaim at exactly T_k kills period k — in both engines."""

    def test_reclaim_exactly_at_boundary(self):
        schedule = Schedule([10.0, 10.0, 10.0])
        p = FAMILIES["uniform"]
        # Force reclaim times exactly on every boundary (and just off them).
        reclaims = np.array([10.0, 20.0, 30.0, 10.0 + 1e-9, 29.999999999])
        scalar = simulate_episodes_scalar(
            schedule, p, 2.0, len(reclaims), reclaim_times=reclaims
        )
        vector = simulate_episodes_vectorized(
            schedule, p, 2.0, len(reclaims), reclaim_times=reclaims
        )
        np.testing.assert_array_equal(scalar.work, vector.work)
        np.testing.assert_array_equal(
            scalar.periods_completed, vector.periods_completed
        )
        # Reclaim at T_0 = 10 banks nothing; just past T_0 banks one period.
        assert scalar.work[0] == 0.0 and scalar.periods_completed[0] == 0
        assert scalar.work[3] == 8.0 and scalar.periods_completed[3] == 1
        # Reclaim at T_2 = 30 kills the last period: only two periods bank.
        assert scalar.work[2] == 16.0 and scalar.periods_completed[2] == 2

    def test_deterministic_life_zero_variance(self):
        """The degenerate step family is a zero-variance exact oracle."""
        p = DeterministicLife(25.0)
        schedule = Schedule([10.0, 10.0, 10.0])
        report = differential_schedule_check(schedule, p, 1.0, n=500, seed=0)
        assert_exact_parity(report)
        # All episodes reclaim at 25: periods 0 and 1 bank (T < 25), 2 dies.
        assert report.mean_scalar == pytest.approx(18.0)


class TestUnrollPolicy:
    def test_unroll_matches_episode_view(self):
        chunks = [5.0, 4.0, 3.0, 2.0]

        def policy(elapsed: float):
            total = 0.0
            for i, t in enumerate(chunks):
                if abs(elapsed - total) < 1e-9:
                    return t
                total += t
            return None

        periods = unroll_policy(policy, horizon=100.0)
        np.testing.assert_allclose(periods, chunks)

    def test_unroll_respects_horizon(self):
        periods = unroll_policy(lambda e: 1.0, horizon=10.0)
        assert periods.size == 10  # periods starting at 0..9; start 10 >= horizon

    def test_unroll_respects_max_periods(self):
        periods = unroll_policy(lambda e: 1.0, horizon=1e9, max_periods=50)
        assert periods.size == 50

    def test_unroll_stop_iteration(self):
        def policy(elapsed: float):
            if elapsed > 5.0:
                raise StopIteration
            return 2.0

        periods = unroll_policy(policy, horizon=100.0)
        np.testing.assert_allclose(periods, [2.0, 2.0, 2.0])
