"""Shared fixtures: canonical life functions, RNGs, and warmed table dirs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    MixtureLife,
    ParetoLife,
    PolynomialRisk,
    UniformRisk,
    WeibullLife,
)

#: The warmed-table smoke configuration shared by serving tests: small
#: enough to warm in ~1 s, rich enough to exercise on-grid, off-grid, and
#: out-of-bounds table paths.
TABLE_FIXTURE_FAMILIES = ("uniform", "geomdec")
TABLE_FIXTURE_GRID_POINTS = 5
TABLE_FIXTURE_SEARCH_GRID = 33


@pytest.fixture(scope="session")
def warmed_table_dir(tmp_path_factory) -> dict:
    """A session-scoped directory of precomputed guideline tables.

    Warmed **once** per test session and shared by every batched-serving
    and multiprocess-sharding test — worker processes load the same npz
    files, so re-precomputing per test would dominate the suite's runtime.
    Consumers must open it read-only (``TableServer(cache_dir=...,
    cache=PlanCache())``) and never write through it.

    Returns a dict: ``dir`` (Path), ``families``, ``grids`` (the exact
    per-family ``(c_grid, param_grid)`` arrays warmed), ``search_grid``.
    """
    from repro.analysis.tables_precompute import TableServer, default_grids
    from repro.core.plancache import PlanCache

    path = tmp_path_factory.mktemp("guideline-tables")
    grids = {
        fam: default_grids(fam, points=TABLE_FIXTURE_GRID_POINTS)
        for fam in TABLE_FIXTURE_FAMILIES
    }
    server = TableServer(cache_dir=path, cache=PlanCache())
    server.warm(
        families=list(TABLE_FIXTURE_FAMILIES),
        grids=grids,
        search_grid=TABLE_FIXTURE_SEARCH_GRID,
    )
    return {
        "dir": path,
        "families": TABLE_FIXTURE_FAMILIES,
        "grids": grids,
        "search_grid": TABLE_FIXTURE_SEARCH_GRID,
    }


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(20260706)


def _paper_families() -> dict:
    return {
        "uniform": UniformRisk(100.0),
        "poly2": PolynomialRisk(2, 100.0),
        "poly3": PolynomialRisk(3, 80.0),
        "geomdec": GeometricDecreasingLifespan(1.1),
        "geominc": GeometricIncreasingRisk(30.0),
    }


@pytest.fixture(params=list(_paper_families()))
def paper_life(request):
    """Each Section 4 family, one at a time (parametrized)."""
    return _paper_families()[request.param]


@pytest.fixture(params=["uniform", "poly2", "geominc"])
def concave_life(request):
    """The concave (finite-lifespan) families."""
    return _paper_families()[request.param]


@pytest.fixture
def all_families():
    """Every analytic family, including the extras."""
    fams = _paper_families()
    fams["weibull_convex"] = WeibullLife(k=0.8, scale=20.0)
    fams["weibull_general"] = WeibullLife(k=1.8, scale=20.0)
    fams["pareto"] = ParetoLife(d=2.0)
    fams["mixture"] = MixtureLife(
        [UniformRisk(50.0), UniformRisk(150.0)], [0.5, 0.5]
    )
    return fams
