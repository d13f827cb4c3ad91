"""The numeric ground-truth optimizer and its Theorem 3.1 gradient."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.batch_recurrence import generate_schedules_batch
from repro.core.exact import (
    geometric_decreasing_optimal_work,
    uniform_optimal_schedule,
)
from repro.core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    PolynomialRisk,
    UniformRisk,
)
from repro.core.life_functions import Shape
from repro.core.optimizer import (
    _candidate_period_counts,
    expected_work_gradient,
    optimize_fixed_m,
    optimize_schedule,
    optimize_t0_via_recurrence,
)
from repro.core.recurrence import generate_schedule


class _GeneralUniform(UniformRisk):
    """Uniform risk that *declares* GENERAL shape, forcing the L/c probe."""

    @property
    def shape(self) -> Shape:
        return Shape.GENERAL


class TestGradient:
    def test_matches_finite_differences(self):
        p = PolynomialRisk(2, 50.0)
        c = 1.0
        periods = np.array([12.0, 9.0, 6.0, 4.0])
        grad = expected_work_gradient(periods, p, c)

        def e(x):
            b = np.cumsum(x)
            return float(np.dot(x - c, np.asarray(p(b))))

        h = 1e-7
        for j in range(len(periods)):
            bump = periods.copy()
            bump[j] += h
            dip = periods.copy()
            dip[j] -= h
            numeric = (e(bump) - e(dip)) / (2 * h)
            assert grad[j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_zero_gradient_is_theorem_31(self):
        """At the exact uniform optimum, ∂E/∂t_j = 0 — i.e. system (3.1)."""
        L, c = 200.0, 2.0
        res = uniform_optimal_schedule(L, c)
        grad = expected_work_gradient(res.schedule.periods, UniformRisk(L), c)
        assert np.max(np.abs(grad)) < 1e-8


class TestFixedM:
    def test_single_period_uniform(self):
        """m=1: maximize (t-c)(1-t/L); optimum t = (L+c)/2."""
        L, c = 100.0, 4.0
        res = optimize_fixed_m(UniformRisk(L), c, 1)
        assert res.t0 == pytest.approx((L + c) / 2, rel=1e-6)
        assert res.expected_work == pytest.approx((L - c) ** 2 / (4 * L), rel=1e-9)

    def test_recovers_uniform_optimum(self):
        L, c = 150.0, 2.0
        exact = uniform_optimal_schedule(L, c)
        res = optimize_fixed_m(UniformRisk(L), c, exact.num_periods)
        # SLSQP from a generic start converges to ~1e-4 relative; the sweep's
        # ramp multi-start recovers the exact value (see TestSweep).
        assert res.expected_work == pytest.approx(exact.expected_work, rel=1e-3)

    def test_m_too_large_strips_pinned_periods(self):
        L, c = 50.0, 2.0
        res = optimize_fixed_m(UniformRisk(L), c, 40)
        # Excess periods pin to c (zero work) and are stripped.
        assert res.schedule.num_periods < 40
        assert np.all(res.schedule.periods > c)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            optimize_fixed_m(UniformRisk(10.0), 1.0, 0)

    def test_bad_t_init_length(self):
        with pytest.raises(ValueError):
            optimize_fixed_m(UniformRisk(10.0), 1.0, 2, t_init=[5.0])


class TestSweep:
    def test_uniform_ground_truth(self):
        L, c = 300.0, 2.0
        exact = uniform_optimal_schedule(L, c)
        res = optimize_schedule(UniformRisk(L), c)
        assert res.expected_work == pytest.approx(exact.expected_work, rel=1e-7)

    def test_geomdec_ground_truth(self):
        a, c = 1.3, 1.0
        closed = geometric_decreasing_optimal_work(a, c)
        res = optimize_schedule(GeometricDecreasingLifespan(a), c)
        # Truncated NLP should approach the infinite-schedule closed form.
        assert res.expected_work == pytest.approx(closed, rel=1e-3)
        assert res.expected_work <= closed + 1e-9

    def test_geominc_structure(self):
        res = optimize_schedule(GeometricIncreasingRisk(30.0), 1.0)
        # Concave: strictly decreasing periods (Corollary 5.1).
        assert np.all(np.diff(res.schedule.periods) < 0)


class TestT0Recurrence:
    def test_uniform_matches_exact(self):
        L, c = 400.0, 2.0
        exact = uniform_optimal_schedule(L, c)
        t0, outcome, ew = optimize_t0_via_recurrence(UniformRisk(L), c)
        assert ew == pytest.approx(exact.expected_work, rel=1e-9)
        assert t0 == pytest.approx(exact.t0, rel=1e-4)

    def test_geomdec_finds_fixed_point(self):
        from repro.core.exact import geometric_decreasing_optimal_period

        a, c = 1.2, 0.5
        t0, outcome, ew = optimize_t0_via_recurrence(GeometricDecreasingLifespan(a), c)
        t_star = geometric_decreasing_optimal_period(a, c)
        assert t0 == pytest.approx(t_star, rel=1e-3)
        closed = geometric_decreasing_optimal_work(a, c)
        assert ew == pytest.approx(closed, rel=1e-4)

    def test_custom_bracket(self):
        from repro.types import Bracket

        L, c = 100.0, 1.0
        t0, _, ew = optimize_t0_via_recurrence(
            UniformRisk(L), c, bracket=Bracket(5.0, 30.0)
        )
        assert 5.0 / 1.5 <= t0 <= 30.0 * 1.5
        assert ew > 0

    @pytest.mark.parametrize(
        "p,c",
        [
            (UniformRisk(400.0), 2.0),
            (PolynomialRisk(3, 300.0), 2.0),
            (GeometricDecreasingLifespan(1.2), 0.5),
            (GeometricIncreasingRisk(30.0), 1.0),
        ],
        ids=["uniform", "poly3", "geomdec", "geominc"],
    )
    def test_engines_agree(self, p, c, monkeypatch):
        """The batch sweep agrees with the scalar recurrence oracle: every
        grid point's score to 1e-12, and the returned plan exactly."""
        import repro.core.optimizer as opt

        sweeps = []

        def recording(p_, c_, ts, **kw):
            batch = generate_schedules_batch(p_, c_, ts, **kw)
            sweeps.append((np.array(ts), batch.expected_work.copy()))
            return batch

        monkeypatch.setattr(opt, "generate_schedules_batch", recording)
        t0, outcome, ew = optimize_t0_via_recurrence(p, c)
        [(ts, scores)] = sweeps
        for t, score in zip(ts, scores):
            oracle = generate_schedule(p, c, float(t)).schedule.expected_work(p, c)
            assert score == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        oracle = generate_schedule(p, c, t0)
        np.testing.assert_array_equal(outcome.schedule.periods, oracle.schedule.periods)
        np.testing.assert_array_equal(outcome.targets, oracle.targets)
        assert outcome.termination is oracle.termination
        assert ew == oracle.schedule.expected_work(p, c)

    def test_winner_not_recomputed(self, monkeypatch):
        """The returned t0's schedule comes from the cache, not a re-walk."""
        import repro.core.optimizer as opt

        calls: list[float] = []
        original = opt.generate_schedule

        def counting(p, c, t0, **kw):
            calls.append(t0)
            return original(p, c, t0, **kw)

        monkeypatch.setattr(opt, "generate_schedule", counting)
        t0, outcome, ew = optimize_t0_via_recurrence(UniformRisk(200.0), 2.0)
        # Every scalar walk during refinement evaluated a distinct t0: the
        # final (t0, outcome, ew) came from the cache, never a repeat call.
        assert len(calls) == len(set(calls))
        assert ew == pytest.approx(outcome.schedule.expected_work(UniformRisk(200.0), 2.0))


class TestCandidatePeriodCounts:
    def test_small_lifespan_overhead_ratio_still_sweeps(self):
        """L barely above c must still yield a non-degenerate count sweep."""
        counts = _candidate_period_counts(_GeneralUniform(3.0), 2.0, None)
        assert counts == [1, 2]

    def test_counts_sorted_unique_and_reach_m_max(self):
        counts = _candidate_period_counts(_GeneralUniform(100.0), 2.0, None)
        assert counts == sorted(set(counts))
        assert counts[-1] == 50  # L/c
        assert counts[0] == 1

    def test_explicit_m_max_respected(self):
        counts = _candidate_period_counts(UniformRisk(100.0), 2.0, 7)
        assert counts == [1, 2, 3, 4, 5, 6, 7]

    def test_geometric_probe_dedupes(self):
        counts = _candidate_period_counts(_GeneralUniform(512.0), 2.0, None)
        assert len(counts) == len(set(counts))
        assert all(1 <= m <= 256 for m in counts)
