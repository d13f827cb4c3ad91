"""Engine-parity matrix: scalar vs vectorized means across families x workloads.

Unlike the bit-exact differential tests (shared seed), this matrix gives each
engine its *own* independent seed and asserts the two Monte-Carlo means agree
within 4 combined standard errors — the check that stays meaningful even if a
future engine (GPU, multiprocess, ...) stops sharing the RNG stream.

One representative cell runs in the tier-1 suite; the full matrix — the
paper's four §4 families (uniform = exponential-order risk is covered by the
Weibull k=1 instance) crossed with three schedules and two policies — is
marked ``slow`` and runs in the nightly job (``pytest -m slow``).
"""

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
from repro.core.schedule import Schedule
from repro.simulation.monte_carlo import estimate_expected_work
from repro.simulation.scalar import simulate_policy_episodes_scalar
from repro.simulation.vectorized import simulate_policy_episodes_vectorized
from repro.simulation.testing import reference_schedule, statistical_parity

#: family label -> life-function instance (the matrix's rows).
MATRIX_FAMILIES = {
    "exponential": WeibullLife(k=1.0, scale=25.0),
    "uniform": UniformRisk(100.0),
    "poly-decay": PolynomialRisk(3, 80.0),
    "geomdec": GeometricDecreasingLifespan(1.2),
    "geominc": GeometricIncreasingRisk(30.0),
}

#: schedule label -> builder(p, c) (the matrix's schedule columns).
MATRIX_SCHEDULES = {
    "reference": lambda p, c: reference_schedule(p, c),
    "equal-8": lambda p, c: Schedule([float(p.inverse(0.5)) / 4.0] * 8),
    "single": lambda p, c: Schedule([float(p.inverse(0.25))]),
}

#: policy label -> builder(p, c) returning an elapsed-deterministic policy.
MATRIX_POLICIES = {
    "fixed-chunk": lambda p, c: (
        lambda elapsed, step=max(float(p.inverse(0.5)) / 6.0, 3.0 * c): step
    ),
    "linear-growth": lambda p, c: (
        lambda elapsed, base=max(float(p.inverse(0.5)) / 8.0, 3.0 * c): base
        + 0.25 * elapsed
    ),
}


def _assert_schedule_cell(family: str, sched: str, n: int) -> None:
    p = MATRIX_FAMILIES[family]
    c = 0.5
    schedule = MATRIX_SCHEDULES[sched](p, c)
    z_engines, z_analytic = statistical_parity(
        schedule, p, c, n=n, seed_scalar=101, seed_vectorized=202
    )
    assert z_engines < 4.0, (
        f"{family} x {sched}: engine means differ by {z_engines:.2f} SE"
    )
    assert z_analytic < 4.0, (
        f"{family} x {sched}: vectorized mean off eq.(2.1) by {z_analytic:.2f} SE"
    )


def _assert_policy_cell(family: str, pol: str, n: int) -> None:
    p = MATRIX_FAMILIES[family]
    c = 0.5
    a = simulate_policy_episodes_scalar(
        MATRIX_POLICIES[pol](p, c), p, c, n, np.random.default_rng(303),
        max_periods=5_000,
    ).work
    b = simulate_policy_episodes_vectorized(
        MATRIX_POLICIES[pol](p, c), p, c, n, np.random.default_rng(404),
        max_periods=5_000,
    ).work
    se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
    z = abs(a.mean() - b.mean()) / max(se, 1e-15)
    assert z < 4.0, f"{family} x {pol}: policy engine means differ by {z:.2f} SE"


def test_parity_representative_cell():
    """The one matrix cell that always runs in CI (tier-1)."""
    _assert_schedule_cell("uniform", "reference", n=20_000)
    _assert_policy_cell("uniform", "fixed-chunk", n=5_000)


@pytest.mark.slow
@pytest.mark.parametrize("sched", sorted(MATRIX_SCHEDULES))
@pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
def test_parity_matrix_schedules(family, sched):
    _assert_schedule_cell(family, sched, n=60_000)


@pytest.mark.slow
@pytest.mark.parametrize("pol", sorted(MATRIX_POLICIES))
@pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
def test_parity_matrix_policies(family, pol):
    _assert_policy_cell(family, pol, n=20_000)
