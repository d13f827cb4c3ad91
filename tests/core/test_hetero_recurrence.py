"""The NumPy mixed-lane hetero engine vs the scalar Corollary 3.1 oracle.

Every lane of :func:`generate_schedules_hetero` must reproduce
:func:`generate_schedule` on its own ``(family, θ, c, t0)``: identical period
count and termination, periods and expected work within the recurrence
harness's ULP-scale tolerance.  Lanes are elementwise, so an ``n = 1`` call
must be bit-identical to the same lane of an ``n = N`` call.  The batch engine
runs Section 4 families through this same loop with constant lanes, so a
single-family sweep must match the hetero engine bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables_precompute import default_grids
from repro.core.batch_recurrence import batch_expected_work, generate_schedules_batch
from repro.core.hetero_recurrence import generate_schedules_hetero
from repro.core.life_functions import GeometricDecreasingLifespan
from repro.core.life_functions.families import make
from repro.core.recurrence import generate_schedule
from repro.core.t0_bounds import family_bracket_batch
from repro.core.testing import DEFAULT_ATOL, DEFAULT_RTOL, default_t0_grid
from repro.exceptions import InvalidScheduleError

FAMILIES = ("uniform", "poly", "geomdec", "geominc")
D = 3  # polynomial degree for "poly"
N_LANES = 48


def _mixed_lanes(family: str, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-uniform ``(c, θ)`` over the table grid, ``t0`` across each bracket.

    A few finite-lifespan lanes start at or beyond ``L`` to exercise the
    pre-loop lifespan clamp.
    """
    rng = np.random.default_rng(seed)
    c_grid, p_grid = default_grids(family)
    logu = lambda lo, hi: np.exp(rng.uniform(np.log(lo), np.log(hi), N_LANES))
    cs, params = logu(c_grid[0], c_grid[-1]), logu(p_grid[0], p_grid[-1])
    lo, hi = family_bracket_batch(family, cs, params, D)
    lo = np.maximum(lo / 1.5, cs * (1 + 1e-6) + 1e-9)
    t0s = lo + rng.uniform(0.0, 1.0, N_LANES) * (1.5 * hi - lo)
    if family != "geomdec":
        t0s = np.minimum(t0s, params * (1 - 1e-9))
        t0s[:3] = params[:3] * np.array([1.0, 1.25, 2.0])
    return cs, params, t0s


@pytest.mark.parametrize("family", FAMILIES)
def test_each_lane_matches_the_scalar_oracle(family):
    cs, params, t0s = _mixed_lanes(family, seed=7)
    res = generate_schedules_hetero(family, cs, params, t0s, d=D)
    for i in range(N_LANES):
        p = make(family, float(params[i]), D)
        ref = generate_schedule(p, float(cs[i]), float(t0s[i]))
        m = int(res.num_periods[i])
        assert m == ref.schedule.num_periods, f"lane {i}"
        assert res.termination(i) is ref.termination, f"lane {i}"
        np.testing.assert_allclose(
            res.periods[i, :m], ref.schedule.periods,
            rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, err_msg=f"lane {i}",
        )
        assert np.all(np.isnan(res.periods[i, m:]))
        assert float(res.expected_work[i]) == pytest.approx(
            ref.schedule.expected_work(p, float(cs[i])), rel=DEFAULT_RTOL, abs=DEFAULT_ATOL
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_single_lane_call_is_bit_identical(family):
    cs, params, t0s = _mixed_lanes(family, seed=11)
    full = generate_schedules_hetero(family, cs, params, t0s, d=D)
    for i in range(0, N_LANES, 5):
        one = generate_schedules_hetero(family, cs[i:i + 1], params[i:i + 1],
                                        t0s[i:i + 1], d=D)
        m = int(one.num_periods[0])
        assert m == int(full.num_periods[i])
        assert one.termination_codes[0] == full.termination_codes[i]
        np.testing.assert_array_equal(one.periods[0, :m], full.periods[i, :m])
        assert one.expected_work[0] == full.expected_work[i]


def test_batch_sweep_equals_hetero_constant_lanes_at_ln_a_split():
    """geomdec's rate is one ``np.log``: no last-bit split between engines.

    At this ``a`` ``math.log`` and NumPy's vectorized ``log`` round
    differently on common x86-64 builds; the optimizer's batch sweep and the
    served table's hetero sweep must still agree bit for bit.
    """
    a, c = 2.2519061004996055, 0.15564521868561787
    p = GeometricDecreasingLifespan(a)
    grid = default_t0_grid(p, c, 129)
    batch = generate_schedules_batch(p, c, grid)
    het = generate_schedules_hetero("geomdec", np.full(grid.size, c),
                                    np.full(grid.size, a), grid)
    np.testing.assert_array_equal(batch.num_periods, het.num_periods)
    np.testing.assert_array_equal(batch.termination_codes, het.termination_codes)
    np.testing.assert_array_equal(batch.periods, het.periods)
    np.testing.assert_array_equal(batch.expected_work,
                                  batch_expected_work(het.periods, p, c))


@pytest.mark.parametrize(
    "family,lane_vector,bad",
    [
        ("uniform", 0, np.nan),  # c
        ("geomdec", 0, np.inf),
        ("uniform", 1, np.nan),  # θ: outside each family's domain
        ("uniform", 1, np.inf),
        ("poly", 1, -5.0),
        ("geomdec", 1, 1.0),
        ("geomdec", 1, np.inf),
        ("geominc", 1, 0.0),
        ("geominc", 2, np.nan),  # t0
    ],
)
def test_out_of_domain_lane_is_named(family, lane_vector, bad):
    """A NaN, infinite or out-of-domain lane fails fast, naming lane and value."""
    lanes = [np.full(4, 0.5), np.full(4, 2.0 if family == "geomdec" else 100.0),
             np.full(4, 3.0)]
    lanes[lane_vector][2] = bad
    with pytest.raises(InvalidScheduleError, match=f"got {bad} at lane 2$"):
        generate_schedules_hetero(family, *lanes, d=2)
