"""Per-family checks: closed-form values, derivatives, inverses, sampling,
and the Section 4 family table the classes and the batch engines share."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    ParetoLife,
    PolynomialRisk,
    Shape,
    UniformRisk,
    WeibullLife,
)
from repro.core.life_functions.families import FAMILY_TABLE, family_of, make
from repro.exceptions import SupportError


class TestUniformRisk:
    def test_values(self):
        p = UniformRisk(100.0)
        assert p(0.0) == 1.0
        assert p(50.0) == pytest.approx(0.5)
        assert p(100.0) == pytest.approx(0.0)
        assert p(150.0) == 0.0  # beyond the lifespan

    def test_derivative_constant(self):
        p = UniformRisk(100.0)
        ts = np.linspace(0.0, 99.0, 7)
        assert np.allclose(p.derivative(ts), -0.01)

    def test_inverse_round_trip(self):
        p = UniformRisk(100.0)
        ys = np.linspace(0.0, 1.0, 11)
        assert np.allclose(p(p.inverse(ys)), ys)

    def test_shape_is_linear(self):
        assert UniformRisk(10.0).shape is Shape.LINEAR

    def test_negative_time_rejected(self):
        with pytest.raises(SupportError):
            UniformRisk(10.0)(-1.0)

    def test_invalid_lifespan(self):
        with pytest.raises(ValueError):
            UniformRisk(0.0)
        with pytest.raises(ValueError):
            UniformRisk(-5.0)


class TestPolynomialRisk:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_values(self, d):
        p = PolynomialRisk(d, 10.0)
        assert p(0.0) == 1.0
        assert p(10.0) == pytest.approx(0.0)
        assert p(5.0) == pytest.approx(1.0 - 0.5**d)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_derivative_matches_numeric(self, d):
        p = PolynomialRisk(d, 10.0)
        ts = np.linspace(0.5, 9.5, 13)
        h = 1e-6
        numeric = (np.asarray(p(ts + h)) - np.asarray(p(ts - h))) / (2 * h)
        assert np.allclose(p.derivative(ts), numeric, rtol=1e-5)

    def test_second_derivative_nonpositive(self):
        p = PolynomialRisk(3, 10.0)
        ts = np.linspace(0.1, 9.9, 11)
        assert np.all(np.asarray(p.second_derivative(ts)) <= 0)

    def test_shape_concave_for_d_ge_2(self):
        assert PolynomialRisk(2, 10.0).shape is Shape.CONCAVE
        assert PolynomialRisk(1, 10.0).shape is Shape.LINEAR

    def test_inverse_round_trip(self):
        p = PolynomialRisk(3, 10.0)
        ys = np.linspace(0.0, 1.0, 9)
        assert np.allclose(p(p.inverse(ys)), ys)

    def test_non_integer_degree_rejected(self):
        with pytest.raises(ValueError):
            PolynomialRisk(0, 10.0)
        with pytest.raises(ValueError):
            PolynomialRisk(1.5, 10.0)  # type: ignore[arg-type]


class TestGeometricDecreasing:
    def test_values(self):
        p = GeometricDecreasingLifespan(2.0)
        assert p(0.0) == 1.0
        assert p(1.0) == pytest.approx(0.5)
        assert p(3.0) == pytest.approx(0.125)

    def test_half_life(self):
        # a = 2: survival halves every unit — the paper's "half-life" story.
        p = GeometricDecreasingLifespan(2.0)
        ts = np.linspace(0.0, 20.0, 21)
        ratios = np.asarray(p(ts + 1.0)) / np.asarray(p(ts))
        assert np.allclose(ratios, 0.5)

    def test_memoryless_conditional(self):
        p = GeometricDecreasingLifespan(1.3)
        cond = p.conditional(7.0)
        ts = np.linspace(0.0, 30.0, 17)
        assert np.allclose(np.asarray(cond(ts)), np.asarray(p(ts)))

    def test_unbounded_lifespan(self):
        assert math.isinf(GeometricDecreasingLifespan(1.5).lifespan)

    def test_shape_convex(self):
        assert GeometricDecreasingLifespan(1.5).shape is Shape.CONVEX

    def test_inverse_round_trip(self):
        p = GeometricDecreasingLifespan(1.7)
        ys = np.array([1.0, 0.5, 0.1, 1e-6])
        assert np.allclose(p(p.inverse(ys)), ys)

    def test_inverse_of_zero_is_inf(self):
        assert GeometricDecreasingLifespan(2.0).inverse(0.0) == math.inf

    def test_a_must_exceed_one(self):
        with pytest.raises(ValueError):
            GeometricDecreasingLifespan(1.0)


class TestGeometricIncreasing:
    def test_values_match_paper_formula(self):
        L = 10.0
        p = GeometricIncreasingRisk(L)
        ts = np.linspace(0.0, L, 11)
        expected = (2**L - 2**ts) / (2**L - 1)
        assert np.allclose(np.asarray(p(ts)), expected, rtol=1e-12)

    def test_boundary_values(self):
        p = GeometricIncreasingRisk(25.0)
        assert p(0.0) == pytest.approx(1.0)
        assert p(25.0) == pytest.approx(0.0, abs=1e-12)

    def test_large_lifespan_stable(self):
        # Naive 2^L would overflow float64 near L ~ 1100.
        p = GeometricIncreasingRisk(900.0)
        assert p(0.0) == pytest.approx(1.0)
        assert 0.0 < p(899.0) < 1e-270 or p(899.0) >= 0.0
        assert p(450.0) == pytest.approx(1.0, abs=1e-9)

    def test_derivative_matches_numeric(self):
        p = GeometricIncreasingRisk(20.0)
        ts = np.linspace(1.0, 19.0, 9)
        h = 1e-7
        numeric = (np.asarray(p(ts + h)) - np.asarray(p(ts - h))) / (2 * h)
        assert np.allclose(p.derivative(ts), numeric, rtol=1e-4)

    def test_shape_concave(self):
        assert GeometricIncreasingRisk(10.0).shape is Shape.CONCAVE

    def test_inverse_round_trip(self):
        p = GeometricIncreasingRisk(15.0)
        ys = np.linspace(0.0, 1.0, 13)
        assert np.allclose(np.asarray(p(p.inverse(ys))), ys, atol=1e-9)

    def test_risk_doubles_per_step(self):
        # The defining story: 1 - p's increments double each unit near the end.
        p = GeometricIncreasingRisk(12.0)
        ts = np.arange(0, 12)
        dens = -np.asarray(p.derivative(ts.astype(float)))
        assert np.allclose(dens[1:] / dens[:-1], 2.0, rtol=1e-9)


class TestWeibull:
    def test_k1_matches_exponential(self):
        w = WeibullLife(k=1.0, scale=2.0)
        g = GeometricDecreasingLifespan(math.exp(0.5))
        ts = np.linspace(0.0, 10.0, 11)
        assert np.allclose(np.asarray(w(ts)), np.asarray(g(ts)), rtol=1e-12)

    def test_shape_classification(self):
        assert WeibullLife(k=0.7).shape is Shape.CONVEX
        assert WeibullLife(k=1.0).shape is Shape.CONVEX
        assert WeibullLife(k=2.0).shape is Shape.GENERAL

    def test_inverse_round_trip(self):
        w = WeibullLife(k=1.5, scale=3.0)
        ys = np.array([0.9, 0.5, 0.01])
        assert np.allclose(np.asarray(w(w.inverse(ys))), ys)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WeibullLife(k=0.0)
        with pytest.raises(ValueError):
            WeibullLife(k=1.0, scale=-1.0)


class TestPareto:
    def test_values(self):
        p = ParetoLife(d=2.0)
        assert p(0.0) == 1.0
        assert p(1.0) == pytest.approx(0.25)
        assert p(9.0) == pytest.approx(0.01)

    def test_heavy_tail_vs_exponential(self):
        p = ParetoLife(d=2.0)
        g = GeometricDecreasingLifespan(1.5)
        t = 100.0
        assert p(t) > float(g(t)) * 1e10

    def test_inverse_round_trip(self):
        p = ParetoLife(d=1.5)
        ys = np.array([1.0, 0.3, 1e-4])
        assert np.allclose(np.asarray(p(p.inverse(ys))), ys)


@pytest.mark.parametrize("factory", [
    lambda: UniformRisk(100.0),
    lambda: PolynomialRisk(3, 50.0),
    lambda: GeometricDecreasingLifespan(1.2),
    lambda: GeometricIncreasingRisk(25.0),
    lambda: WeibullLife(k=0.9, scale=10.0),
    lambda: ParetoLife(d=3.0),
])
def test_validate_passes_for_all_families(factory):
    factory().validate()


@pytest.mark.parametrize("factory", [
    lambda: UniformRisk(60.0),
    lambda: PolynomialRisk(2, 40.0),
    lambda: GeometricDecreasingLifespan(1.15),
    lambda: GeometricIncreasingRisk(18.0),
])
def test_sampling_matches_survival(factory, rng):
    """Inverse-transform samples reproduce p as an empirical survival curve."""
    p = factory()
    n = 60_000
    samples = p.sample_reclaim_times(rng, n)
    for q in (0.2, 0.5, 0.8):
        t = float(p.inverse(q))
        empirical = float(np.mean(samples > t))
        assert empirical == pytest.approx(q, abs=4.5 * math.sqrt(q * (1 - q) / n))


class TestFamilyTable:
    """``FAMILY_TABLE``: the one vectorized home of the Section 4 closed forms."""

    #: (family, θ, d) per table family; θ is L, or a for geomdec.
    CASES = [("uniform", 120.0, 1), ("poly", 80.0, 3), ("geomdec", 1.3, 1),
             ("geominc", 16.0, 1)]

    def test_family_of_maps_section4_families(self):
        assert family_of(UniformRisk(100.0)) == ("uniform", 1, 100.0)
        assert family_of(PolynomialRisk(3, 50.0)) == ("poly", 3, 50.0)
        assert family_of(GeometricDecreasingLifespan(1.25)) == ("geomdec", 1, 1.25)
        assert family_of(GeometricIncreasingRisk(30.0)) == ("geominc", 1, 30.0)
        # Non-family and *subclassed* life functions must not map: a subclass
        # may override evaluation semantics the table knows nothing about.
        assert family_of(WeibullLife(1.5, 100.0)) is None

        class Tweaked(UniformRisk):
            pass

        assert family_of(Tweaked(100.0)) is None

    @pytest.mark.parametrize("family,theta,d", CASES)
    def test_make_round_trips_through_family_of(self, family, theta, d):
        assert family_of(make(family, theta, d)) == (family, d, theta)

    def test_make_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown Section 4 family"):
            make("weibull", 1.0)

    @pytest.mark.parametrize("family,theta,d", CASES)
    def test_mean_absence_matches_expected_lifetime(self, family, theta, d):
        """``E[R] = ∫ p`` in closed form equals the quadrature of ``p``."""
        p = make(family, theta, d)
        closed = float(FAMILY_TABLE[family].mean_absence(d, theta))
        assert closed == pytest.approx(p.expected_lifetime(), rel=1e-9)

    @pytest.mark.parametrize("family,theta,d", CASES)
    def test_classes_read_the_table(self, family, theta, d):
        """Scalar-θ classes and per-lane-θ kernels round identically."""
        p, row = make(family, theta, d), FAMILY_TABLE[family]
        ts = np.linspace(0.0, min(p.lifespan, 40.0), 101)
        thetas = np.full(ts.size, theta)
        np.testing.assert_array_equal(
            p(ts), np.clip(row.survival(d, thetas, ts), 0.0, 1.0)
        )
        ys = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(p.inverse(ys), row.inverse(d, thetas, ys))
        assert float(row.lifespan(theta)) == p.lifespan

    def test_ln_a_is_numpys(self):
        """One rate for geomdec: the class's ``ln_a`` is the kernels' ``np.log``."""
        a = 2.2519061004996055
        assert GeometricDecreasingLifespan(a).ln_a == float(np.log(np.array([a]))[0])
