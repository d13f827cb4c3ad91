"""Monte-Carlo estimation: unbiasedness, batching, policy evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.guidelines import guideline_schedule
from repro.core.life_functions import GeometricDecreasingLifespan, UniformRisk
from repro.core.schedule import Schedule
from repro.simulation.monte_carlo import (
    MCEstimate,
    estimate_expected_work,
    estimate_policy_work,
)


class TestEstimate:
    def test_ci_contains_mean(self):
        est = MCEstimate(mean=10.0, stderr=0.5, n=100)
        lo, hi = est.ci95
        assert lo < 10.0 < hi
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * 0.5)

    def test_consistency_check(self):
        est = MCEstimate(mean=10.0, stderr=0.5, n=100)
        assert est.consistent_with(10.9)
        assert not est.consistent_with(13.0)

    def test_zero_stderr_exact_match(self):
        est = MCEstimate(mean=5.0, stderr=0.0, n=10)
        assert est.consistent_with(5.0)
        assert not est.consistent_with(5.1)

    def test_ci_confidence_quantiles(self):
        """ci(confidence) uses the right two-sided normal quantiles."""
        est = MCEstimate(mean=10.0, stderr=1.0, n=100)
        lo90, hi90 = est.ci(0.90)
        assert hi90 - lo90 == pytest.approx(2 * 1.6448536269514722, rel=1e-9)
        lo99, hi99 = est.ci(0.99)
        assert hi99 - lo99 == pytest.approx(2 * 2.5758293035489004, rel=1e-9)
        # Default coverage is 0.95 and matches the ci95 shorthand.
        assert est.ci() == est.ci95 == est.ci(0.95)
        # Intervals nest: wider coverage, wider interval.
        assert lo99 < lo90 < 10.0 < hi90 < hi99

    def test_ci_invalid_confidence(self):
        est = MCEstimate(mean=10.0, stderr=1.0, n=100)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                est.ci(bad)


class TestExpectedWorkValidation:
    def test_matches_analytic(self, paper_life, rng):
        c = 0.5
        res = guideline_schedule(paper_life, c, grid=33)
        est = estimate_expected_work(res.schedule, paper_life, c, n=150_000, rng=rng)
        assert est.consistent_with(res.expected_work), (
            f"MC {est.mean} ± {est.stderr} vs analytic {res.expected_work}"
        )

    def test_batching_equivalent(self):
        p = UniformRisk(40.0)
        s = Schedule([10.0, 7.0])
        a = estimate_expected_work(s, p, 1.0, n=50_000, rng=np.random.default_rng(7))
        b = estimate_expected_work(
            s, p, 1.0, n=50_000, rng=np.random.default_rng(7), batch_size=1_000
        )
        assert a.mean == pytest.approx(b.mean)
        assert a.stderr == pytest.approx(b.stderr)

    def test_default_rng_deterministic(self):
        p = UniformRisk(40.0)
        s = Schedule([10.0, 7.0])
        a = estimate_expected_work(s, p, 1.0, n=10_000)
        b = estimate_expected_work(s, p, 1.0, n=10_000)
        assert a.mean == b.mean


class TestPolicyWork:
    def test_fixed_policy_matches_schedule(self, rng):
        p = UniformRisk(60.0)
        c = 1.0
        s = Schedule([12.0, 10.0, 8.0])

        periods = list(s)

        def policy(elapsed: float):
            # Replay the schedule by elapsed time.
            total = 0.0
            for t in periods:
                if elapsed < total + t - 1e-9:
                    return t if abs(elapsed - total) < 1e-9 else None
                total += t
            return None

        est = estimate_policy_work(policy, p, c, n=30_000, rng=rng)
        analytic = s.expected_work(p, c)
        assert est.consistent_with(analytic, z=5.0)

    def test_stop_iteration_supported(self, rng):
        p = GeometricDecreasingLifespan(1.5)

        calls = {"n": 0}

        def policy(elapsed: float):
            calls["n"] += 1
            if elapsed > 5.0:
                raise StopIteration
            return 2.0

        est = estimate_policy_work(policy, p, 0.5, n=500, rng=rng)
        assert est.mean >= 0.0
        assert calls["n"] > 0
