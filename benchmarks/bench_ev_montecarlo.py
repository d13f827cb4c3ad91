"""EV-MC — validation of eq. (2.1): Monte-Carlo episodes match analytic E.

Simulates hundreds of thousands of draconian episodes per family and checks
the sample-mean banked work lands within the confidence interval of the
analytic expected work — validating both the formula and the simulator's
accounting (a reclaim at exactly T_k kills period k, etc.).
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.tables import print_table
from repro.simulation import estimate_expected_work, simulate_episodes


def test_ev_montecarlo_table(rng, benchmark):
    cases = [
        ("uniform L=200", repro.UniformRisk(200.0), 2.0),
        ("poly d=3 L=100", repro.PolynomialRisk(3, 100.0), 1.0),
        ("geomdec a=1.3", repro.GeometricDecreasingLifespan(1.3), 0.5),
        ("geominc L=30", repro.GeometricIncreasingRisk(30.0), 1.0),
        ("weibull k=1.8", repro.WeibullLife(k=1.8, scale=20.0), 0.5),
    ]
    n = 200_000
    rows = []
    for name, p, c in cases:
        res = repro.guideline_schedule(p, c, grid=33)
        est = estimate_expected_work(res.schedule, p, c, n=n, rng=rng)
        z = abs(est.mean - res.expected_work) / max(est.stderr, 1e-12)
        rows.append([name, res.expected_work, est.mean, est.stderr, z, z < 4.5])
    print_table(
        ["case", "analytic E", "MC mean", "stderr", "|z|", "consistent"],
        rows,
        title=f"EV-MC: eq.(2.1) vs {n:,} simulated episodes per family",
    )
    for row in rows:
        assert row[5], row

    p = repro.UniformRisk(200.0)
    sched = repro.guideline_schedule(p, 2.0, grid=17).schedule
    benchmark(lambda: simulate_episodes(sched, p, 2.0, 100_000, rng).mean_work)
