"""The Corollary 3.1 recurrence engine: closed forms, generic path, termination."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    PolynomialRisk,
    UniformRisk,
    WeibullLife,
)
from repro.core.recurrence import (
    Termination,
    generate_schedule,
    next_period,
    recurrence_residuals,
    satisfies_recurrence,
)
from repro.exceptions import InvalidScheduleError


class TestClosedForms:
    def test_uniform_decrement_law(self):
        """Eq. (4.1): for d = 1 the recurrence is exactly t_k = t_{k-1} - c."""
        p = UniformRisk(100.0)
        out = generate_schedule(p, 2.0, 15.0)
        decs = -np.diff(out.schedule.periods)
        assert np.allclose(decs, 2.0)

    def test_polynomial_closed_form_matches_generic(self):
        p = PolynomialRisk(3, 60.0)
        closed = generate_schedule(p, 1.0, 20.0, use_closed_form=True)
        generic = generate_schedule(p, 1.0, 20.0, use_closed_form=False)
        assert closed.schedule.num_periods == generic.schedule.num_periods
        assert np.allclose(closed.schedule.periods, generic.schedule.periods, rtol=1e-6)

    def test_geometric_decreasing_closed_form_matches_generic(self):
        p = GeometricDecreasingLifespan(1.2)
        t_star = 8.0
        closed = next_period(p, 1.0, t_star, t_star, use_closed_form=True)
        generic = next_period(p, 1.0, t_star, t_star, use_closed_form=False)
        assert closed == pytest.approx(generic, rel=1e-8)

    def test_geometric_decreasing_eq_46(self):
        """Eq. (4.6): a^{-t_k} + t_{k-1} ln a = 1 + c ln a."""
        a, c = 1.3, 0.5
        p = GeometricDecreasingLifespan(a)
        t_prev = 3.0
        t_next = next_period(p, c, t_prev, 10.0)
        assert a ** (-t_next) + t_prev * math.log(a) == pytest.approx(
            1 + c * math.log(a), rel=1e-12
        )

    def test_geometric_decreasing_solvability_bound(self):
        """Eq. (4.6) is solvable only while t_{k-1} < c + 1/ln a."""
        a, c = 2.0, 1.0
        p = GeometricDecreasingLifespan(a)
        limit = c + 1.0 / math.log(a)
        assert next_period(p, c, limit * 0.99, 5.0) is not None
        assert next_period(p, c, limit * 1.01, 5.0) is None

    def test_geometric_increasing_eq_47(self):
        """Eq. (4.7): t_k = log2((t_{k-1} - c) ln 2 + 1)."""
        p = GeometricIncreasingRisk(30.0)
        c = 1.0
        t_prev = 10.0
        t_next = next_period(p, c, t_prev, 12.0)
        assert t_next == pytest.approx(math.log2((t_prev - c) * math.log(2) + 1))

    def test_geometric_increasing_closed_matches_generic(self):
        p = GeometricIncreasingRisk(25.0)
        closed = generate_schedule(p, 0.5, 18.0, use_closed_form=True)
        generic = generate_schedule(p, 0.5, 18.0, use_closed_form=False)
        m = min(closed.schedule.num_periods, generic.schedule.num_periods)
        assert m >= 2
        assert np.allclose(
            closed.schedule.periods[:m], generic.schedule.periods[:m], rtol=1e-6
        )


class TestGeneratedSchedules:
    def test_residuals_vanish(self, paper_life):
        c = 0.5
        t0 = 0.25 * (
            paper_life.lifespan if math.isfinite(paper_life.lifespan) else 20.0
        )
        out = generate_schedule(paper_life, c, max(t0, 2 * c))
        if out.schedule.num_periods >= 2:
            res = recurrence_residuals(out.schedule, paper_life, c)
            assert np.max(np.abs(res)) < 1e-8
            assert satisfies_recurrence(out.schedule, paper_life, c)

    def test_all_periods_productive(self, paper_life):
        c = 0.5
        t0 = 10.0
        out = generate_schedule(paper_life, c, t0)
        assert np.all(out.schedule.periods > c)

    def test_concave_terminates_finite(self, concave_life):
        out = generate_schedule(concave_life, 1.0, concave_life.lifespan * 0.3)
        assert out.termination in (
            Termination.TARGET_NONPOSITIVE,
            Termination.UNPRODUCTIVE,
            Termination.LIFESPAN_EXHAUSTED,
        )
        assert out.schedule.total_length <= concave_life.lifespan + 1e-9

    def test_weibull_general_shape_runs(self):
        p = WeibullLife(k=1.7, scale=15.0)
        out = generate_schedule(p, 0.5, 8.0)
        assert out.schedule.num_periods >= 1
        if out.schedule.num_periods >= 2:
            assert satisfies_recurrence(out.schedule, p, 0.5)

    def test_t0_not_exceeding_c_rejected(self):
        with pytest.raises(InvalidScheduleError):
            generate_schedule(UniformRisk(10.0), 2.0, 2.0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(InvalidScheduleError):
            generate_schedule(UniformRisk(10.0), -1.0, 5.0)

    @pytest.mark.parametrize("c,t0", [(math.nan, 5.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_inputs_rejected(self, c, t0):
        with pytest.raises(InvalidScheduleError, match="finite"):
            generate_schedule(UniformRisk(100.0), c, t0)

    def test_t0_at_lifespan_clamps(self):
        p = UniformRisk(10.0)
        out = generate_schedule(p, 1.0, 12.0)
        assert out.schedule.num_periods == 1
        assert out.termination is Termination.LIFESPAN_EXHAUSTED
        assert out.schedule.total_length <= 10.0

    def test_max_periods_cap(self):
        # Memoryless family at the fixed point would iterate forever.
        a = 1.3
        p = GeometricDecreasingLifespan(a)
        from repro.core.exact import geometric_decreasing_optimal_period

        t_star = geometric_decreasing_optimal_period(a, 0.5)
        out = generate_schedule(p, 0.5, t_star, max_periods=37, tail_tol=0.0)
        assert out.schedule.num_periods == 37
        assert out.termination is Termination.MAX_PERIODS

    def test_tail_negligible_for_fixed_point(self):
        a = 1.5
        p = GeometricDecreasingLifespan(a)
        from repro.core.exact import geometric_decreasing_optimal_period

        t_star = geometric_decreasing_optimal_period(a, 1.0)
        out = generate_schedule(p, 1.0, t_star)
        assert out.termination is Termination.TAIL_NEGLIGIBLE
        # Periods sit at the fixed point (the repelling iteration drifts at
        # float precision, so the very tail is slightly off).
        assert np.allclose(out.schedule.periods, t_star, rtol=1e-4)

    def test_fixed_point_instability_above(self):
        """The guideline recurrence repels from the fixed point: a t0 above
        t* grows until the target goes non-positive."""
        a, c = 1.5, 1.0
        from repro.core.exact import geometric_decreasing_optimal_period

        t_star = geometric_decreasing_optimal_period(a, c)
        p = GeometricDecreasingLifespan(a)
        out = generate_schedule(p, c, t_star * 1.05)
        assert out.termination is Termination.TARGET_NONPOSITIVE
        assert np.all(np.diff(out.schedule.periods) > 0)  # growing

    def test_fixed_point_instability_below(self):
        a, c = 1.5, 1.0
        from repro.core.exact import geometric_decreasing_optimal_period

        t_star = geometric_decreasing_optimal_period(a, c)
        p = GeometricDecreasingLifespan(a)
        out = generate_schedule(p, c, t_star * 0.95)
        assert out.termination is Termination.UNPRODUCTIVE
        assert np.all(np.diff(out.schedule.periods) < 0)  # shrinking


class TestResiduals:
    def test_single_period_empty(self):
        res = recurrence_residuals(
            __import__("repro").core.Schedule([5.0]), UniformRisk(10.0), 1.0
        )
        assert res.size == 0

    def test_non_recurrence_schedule_fails_check(self):
        from repro.core.schedule import Schedule

        s = Schedule([5.0, 5.0, 5.0])  # equal periods violate (3.6) for uniform
        assert not satisfies_recurrence(s, UniformRisk(100.0), 1.0)
