"""Precomputed guideline tables: sweep once, serve schedules forever.

For each Section 4 closed-form family the optimal initial period is a smooth,
monotone function ``t0*(c, θ)`` of the overhead and the family parameter
(``L`` for the finite-lifespan families, ``a`` for the geometric-decreasing
one).  This module sweeps a ``(c, θ)`` grid **once** — through
:func:`repro.analysis.sweeps.run_sweep`'s process-pool fan-out, with every
grid point riding the plan cache — persists the resulting ``t0*`` / ``E*``
tables, and then answers arbitrary off-grid queries by

1. bilinear (monotone) interpolation of ``t0*`` inside the containing cell,
2. one cheap batch-recurrence regeneration: a bounded 1-D polish of ``t0``
   over the cell's corner bracket (each evaluation is a single Corollary 3.1
   recurrence walk), then the final :func:`generate_schedule` call;
3. reporting every other query (outside the table's bounds, no table, a
   cell with missing corners) as a per-lane miss, which
   :class:`~repro.core.serving.PlanServer` sends on to the plan cache, the
   full optimizer and the closed-form guideline tier.

The served schedule is exact for its ``t0`` (the recurrence is
deterministic).  Against the full
:func:`~repro.core.optimizer.optimize_t0_via_recurrence` search, the polished
plans' expected work is within 1.1e-10 relative for the uniform, poly and
geominc families; geomdec's worst held-out point is 2.57e-6 relative, where
the optimum sits on a cusp of ``E(t0)`` (see the ``_POLISH_*`` comment and
``benchmarks/bench_plan_cache.py``).

Tables live as ``.npz`` files under ``<cache_dir>/tables/v<schema>/``;
:func:`load_table` is corruption-tolerant (a truncated or garbage file reads
as "no table", so every query for that family falls through the table tier).
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..core.hetero_recurrence import HeteroBatchResult, generate_schedules_hetero
from ..core.life_functions import LifeFunction
from ..core.life_functions.families import FAMILY_TABLE, make
from ..core.optimizer import optimize_t0_via_recurrence
from ..core.plancache import default_plan_cache
from ..core.serving import ServedPlan
from ..exceptions import CycleStealingError, PlanCacheError
from ..types import FloatArray
from .sweeps import run_sweep

__all__ = [
    "TABLE_SCHEMA_VERSION",
    "TABLE_FAMILIES",
    "GuidelineTable",
    "PlanAnswer",
    "TableServer",
    "make_family_life",
    "default_grids",
    "precompute_table",
    "table_path",
    "save_table",
    "load_table",
]

#: Version of the on-disk table schema (bump on incompatible layout changes).
TABLE_SCHEMA_VERSION = 1

#: family name -> (parameter swept by the table, fixed extra parameters).
TABLE_FAMILIES: dict[str, tuple[str, dict[str, float]]] = {
    "uniform": ("L", {}),
    "poly": ("L", {"d": 3.0}),
    "geomdec": ("a", {}),
    "geominc": ("L", {}),
}


def make_family_life(
    family: str, param_value: float, fixed: Optional[Mapping[str, float]] = None
) -> LifeFunction:
    """Instantiate a Section 4 family from its table coordinates."""
    if family not in TABLE_FAMILIES:
        raise PlanCacheError(f"unknown table family {family!r}; expected one of "
                             f"{sorted(TABLE_FAMILIES)}")
    return make(family, param_value, int(dict(fixed or ()).get("d", 3.0)))


def default_grids(family: str, points: int = 17) -> tuple[FloatArray, FloatArray]:
    """The default ``(c_grid, param_grid)`` for one family's table.

    Log-spaced, ``points`` per axis: ``t0*`` varies like a power of both
    coordinates for every Section 4 family, so geometric spacing equalizes
    the relative interpolation error across the table.
    """
    if family in ("uniform", "poly"):
        return np.geomspace(0.5, 8.0, points), np.geomspace(50.0, 1600.0, points)
    if family == "geomdec":
        return np.geomspace(0.1, 1.5, points), np.geomspace(1.02, 2.5, points)
    if family == "geominc":
        return np.geomspace(0.25, 4.0, points), np.geomspace(10.0, 120.0, points)
    raise PlanCacheError(f"unknown table family {family!r}")


def _check_grids(c_grid: np.ndarray, param_grid: np.ndarray) -> None:
    """Raise :class:`PlanCacheError` unless both axes can index a table.

    Each axis must be 1-D with at least 2 points, finite, and strictly
    increasing: the cell lookup (``searchsorted``) and the bilinear weights
    assume exactly that.
    """
    for name, grid in (("c_grid", c_grid), ("param_grid", param_grid)):
        if grid.ndim != 1 or grid.size < 2:
            raise PlanCacheError(f"table {name} must be 1-D with at least 2 points")
        if not np.all(np.isfinite(grid)):
            raise PlanCacheError(f"table {name} must be finite")
        if np.any(np.diff(grid) <= 0):
            raise PlanCacheError(f"table {name} must be strictly increasing")


@dataclass(frozen=True)
class GuidelineTable:
    """A precomputed ``t0*`` / ``E*`` grid for one closed-form family."""

    family: str
    param_name: str
    fixed: tuple[tuple[str, float], ...]
    c_grid: FloatArray
    param_grid: FloatArray
    #: Optimal initial periods, shape ``(len(c_grid), len(param_grid))``.
    t0: FloatArray
    #: Expected work at the optimum, same shape.
    expected_work: FloatArray
    #: Periods in the generated schedule, same shape.
    num_periods: np.ndarray
    #: t0-search resolution / bracket widening the sweep used.
    search_grid: int = 129
    search_widen: float = 1.5
    schema_version: int = TABLE_SCHEMA_VERSION

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.c_grid.size), int(self.param_grid.size))

    def contains(self, c: float, param_value: float) -> bool:
        """Whether ``(c, θ)`` lies inside the table's bounds."""
        return bool(
            self.c_grid[0] <= c <= self.c_grid[-1]
            and self.param_grid[0] <= param_value <= self.param_grid[-1]
        )

    def cell(self, c: float, param_value: float) -> tuple[int, int]:
        """Indices ``(i, j)`` of the containing cell's lower-left corner."""
        i = int(np.clip(np.searchsorted(self.c_grid, c) - 1, 0, self.c_grid.size - 2))
        j = int(
            np.clip(np.searchsorted(self.param_grid, param_value) - 1,
                    0, self.param_grid.size - 2)
        )
        return i, j

    def contains_batch(self, cs: FloatArray, param_values: FloatArray) -> np.ndarray:
        """Vectorized :meth:`contains` over query vectors."""
        cs = np.asarray(cs, dtype=float)
        vs = np.asarray(param_values, dtype=float)
        return (
            (self.c_grid[0] <= cs) & (cs <= self.c_grid[-1])
            & (self.param_grid[0] <= vs) & (vs <= self.param_grid[-1])
        )

    def interpolate_t0_batch(
        self, cs: FloatArray, param_values: FloatArray
    ) -> tuple[FloatArray, FloatArray, FloatArray, np.ndarray]:
        """Vectorized bilinear ``t0`` estimates plus corner brackets.

        Returns ``(t0_est, lo, hi, valid)``; ``valid[i]`` is ``False`` where
        the containing cell has missing (NaN) corners, and ``t0_est/lo/hi``
        are NaN there.  Every arithmetic operation is elementwise in the same
        order as the scalar :meth:`interpolate_t0`, so a length-1 batch is
        bit-identical to the scalar result.
        """
        cs = np.asarray(cs, dtype=float)
        vs = np.asarray(param_values, dtype=float)
        i = np.clip(np.searchsorted(self.c_grid, cs) - 1, 0, self.c_grid.size - 2)
        j = np.clip(
            np.searchsorted(self.param_grid, vs) - 1, 0, self.param_grid.size - 2
        )
        # Gather the four cell corners for every query at once.
        c00 = self.t0[i, j]
        c01 = self.t0[i, j + 1]
        c10 = self.t0[i + 1, j]
        c11 = self.t0[i + 1, j + 1]
        valid = (
            np.isfinite(c00) & np.isfinite(c01) & np.isfinite(c10) & np.isfinite(c11)
        )
        wc = (cs - self.c_grid[i]) / (self.c_grid[i + 1] - self.c_grid[i])
        wp = (vs - self.param_grid[j]) / (self.param_grid[j + 1] - self.param_grid[j])
        top = c00 * (1 - wp) + c01 * wp
        bot = c10 * (1 - wp) + c11 * wp
        est = top * (1 - wc) + bot * wc
        lo = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
        hi = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
        est = np.where(valid, est, np.nan)
        lo = np.where(valid, lo, np.nan)
        hi = np.where(valid, hi, np.nan)
        return est, lo, hi, valid

    def interpolate_t0(self, c: float, param_value: float) -> tuple[float, float, float]:
        """Bilinear ``t0`` estimate plus the cell's corner bracket ``(lo, hi)``.

        Bilinear interpolation of a grid that is monotone in each coordinate
        stays inside the corner envelope, so ``[min corner, max corner]`` is
        a sound (and tight) polish bracket.  Raises
        :class:`~repro.exceptions.CycleStealingError` on cells with missing
        (NaN) corners — callers fall back to the full optimizer.  Thin
        ``n = 1`` wrapper over :meth:`interpolate_t0_batch`.
        """
        est, lo, hi, valid = self.interpolate_t0_batch(
            np.asarray([c]), np.asarray([param_value])
        )
        if not valid[0]:
            i, j = self.cell(c, param_value)
            raise CycleStealingError(
                f"table cell ({i}, {j}) for family {self.family!r} has missing corners"
            )
        return float(est[0]), float(lo[0]), float(hi[0])


#: A table answer is a served plan with ``source="table"`` (interpolated +
#: polished).
PlanAnswer = ServedPlan


# ----------------------------------------------------------------------
# Sweep (precomputation)
# ----------------------------------------------------------------------


def _table_point(
    family: str,
    c: float,
    param_value: float,
    fixed: Optional[dict] = None,
    search_grid: int = 129,
    search_widen: float = 1.5,
    cache_dir: Optional[str] = None,
) -> list:
    """One grid point: module-level so process pools can pickle it.

    Rides the process-default plan cache (sharing ``cache_dir``'s disk tier
    across workers and re-runs), so re-warming a table is nearly free.
    """
    cache = default_plan_cache(cache_dir) if cache_dir else None
    p = make_family_life(family, param_value, fixed)
    try:
        t0, outcome, ew = optimize_t0_via_recurrence(
            p, c, grid=search_grid, widen=search_widen, cache=cache
        )
    except CycleStealingError:
        return [math.nan, math.nan, 0]
    return [t0, ew, outcome.schedule.num_periods]


def precompute_table(
    family: str,
    c_grid: Optional[FloatArray] = None,
    param_grid: Optional[FloatArray] = None,
    fixed: Optional[Mapping[str, float]] = None,
    search_grid: int = 129,
    search_widen: float = 1.5,
    n_jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> GuidelineTable:
    """Sweep the ``(c, θ)`` grid once and assemble the guideline table.

    ``n_jobs`` fans the sweep out over a process pool (see
    :func:`~repro.analysis.sweeps.run_sweep`); each point's ``t_0`` search
    rides the plan cache under ``cache_dir`` when one is given.
    """
    param_name, default_fixed = TABLE_FAMILIES[family]
    fixed = dict(fixed if fixed is not None else default_fixed)
    if c_grid is None or param_grid is None:
        default_c, default_param = default_grids(family)
        c_grid = default_c if c_grid is None else c_grid
        param_grid = default_param if param_grid is None else param_grid
    c_grid = np.asarray(c_grid, dtype=float)
    param_grid = np.asarray(param_grid, dtype=float)
    _check_grids(c_grid, param_grid)

    params_list = [
        {
            "family": family,
            "c": float(c),
            "param_value": float(v),
            "fixed": fixed,
            "search_grid": search_grid,
            "search_widen": search_widen,
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
        }
        for c in c_grid
        for v in param_grid
    ]
    points = run_sweep(params_list, _table_point, n_jobs=n_jobs)
    rows = np.asarray([pt.row for pt in points], dtype=float)
    shape = (c_grid.size, param_grid.size)
    return GuidelineTable(
        family=family,
        param_name=param_name,
        fixed=tuple(sorted((k, float(v)) for k, v in fixed.items())),
        c_grid=c_grid,
        param_grid=param_grid,
        t0=rows[:, 0].reshape(shape),
        expected_work=rows[:, 1].reshape(shape),
        num_periods=rows[:, 2].astype(int).reshape(shape),
        search_grid=search_grid,
        search_widen=search_widen,
    )


# ----------------------------------------------------------------------
# Persistence (npz, corruption-tolerant)
# ----------------------------------------------------------------------


def table_path(cache_dir: Union[str, Path], family: str) -> Path:
    """The conventional location of one family's table."""
    return Path(cache_dir) / "tables" / f"v{TABLE_SCHEMA_VERSION}" / f"{family}.npz"


def save_table(table: GuidelineTable, path: Union[str, Path]) -> Path:
    """Persist a table atomically (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".npz.tmp")
    fixed_names = [k for k, _ in table.fixed]
    fixed_values = np.asarray([v for _, v in table.fixed], dtype=float)
    with open(tmp, "wb") as fh:
        np.savez(
            fh,
            schema_version=np.asarray([table.schema_version]),
            family=np.asarray([table.family]),
            param_name=np.asarray([table.param_name]),
            fixed_names=np.asarray(fixed_names, dtype="U32"),
            fixed_values=fixed_values,
            c_grid=table.c_grid,
            param_grid=table.param_grid,
            t0=table.t0,
            expected_work=table.expected_work,
            num_periods=table.num_periods,
            search=np.asarray([float(table.search_grid), table.search_widen]),
        )
    tmp.replace(path)
    return path


def load_table(path: Union[str, Path]) -> Optional[GuidelineTable]:
    """Load a table; ``None`` for missing, corrupt, or wrong-schema files.

    A file also reads as corrupt when an axis (``c_grid``, ``param_grid``)
    is not 1-D, finite and strictly increasing with at least 2 points, or
    when a per-cell grid (``t0``, ``expected_work``, ``num_periods``) is not
    ``(len(c_grid), len(param_grid))``.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["schema_version"][0]) != TABLE_SCHEMA_VERSION:
                return None
            table = GuidelineTable(
                family=str(data["family"][0]),
                param_name=str(data["param_name"][0]),
                fixed=tuple(
                    (str(k), float(v))
                    for k, v in zip(data["fixed_names"], data["fixed_values"])
                ),
                c_grid=np.asarray(data["c_grid"], dtype=float),
                param_grid=np.asarray(data["param_grid"], dtype=float),
                t0=np.asarray(data["t0"], dtype=float),
                expected_work=np.asarray(data["expected_work"], dtype=float),
                num_periods=np.asarray(data["num_periods"], dtype=int),
                search_grid=int(data["search"][0]),
                search_widen=float(data["search"][1]),
            )
        _check_grids(table.c_grid, table.param_grid)
    except (OSError, ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile,
            PlanCacheError):
        return None
    if any(
        grid.shape != table.shape
        for grid in (table.t0, table.expected_work, table.num_periods)
    ):
        return None
    return table


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


#: Batched polish resolution: K-point bracket scans, refined R times.  The
#: final bracket step is ``width / (K-1)^R / 2^{R-1}`` ≈ ``width / 65536``.
#: Where E is locally quadratic in ``t0`` that keeps the served expected
#: work within ~1e-9 relative of the bracket optimum.  Where the optimum sits
#: on a cusp of E(t0) (the period count jumps there), E falls linearly on
#: both sides and the miss is first order in that step: geomdec's held-out
#: worst case is 2.57e-6 relative.
_POLISH_POINTS = 17
_POLISH_ROUNDS = 5


class TableServer:
    """The strict table tier: schedules from precomputed tables in ~O(m) time.

    Holds one :class:`GuidelineTable` per family (loaded lazily from
    ``cache_dir`` by :func:`load_table`) and answers
    :meth:`serve_from_table_batch` by interpolate + polish.  It never falls
    back: a query it cannot answer comes back as an error for that lane, and
    :class:`~repro.core.serving.PlanServer` — the one fallback chain — sends
    it on to the cache, optimizer and guideline tiers.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        #: The table directory's root (tables live under ``tables/v<schema>/``).
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._tables: dict[str, Optional[GuidelineTable]] = {}

    def add_table(self, table: GuidelineTable) -> None:
        """Register an in-memory table (used by tests and warm pipelines)."""
        self._tables[table.family] = table

    def table(self, family: str) -> Optional[GuidelineTable]:
        """The family's table, loading from ``cache_dir`` on first use.

        A file that holds another family's table is no table for ``family``.
        """
        if family not in self._tables:
            loaded = None
            if self.cache_dir is not None:
                loaded = load_table(table_path(self.cache_dir, family))
            if loaded is not None and loaded.family != family:
                loaded = None
            self._tables[family] = loaded
        return self._tables[family]

    def serve_from_table_batch(
        self,
        families: Sequence[str],
        cs: FloatArray,
        param_values: FloatArray,
        polish: bool = True,
    ) -> list[Union[ServedPlan, CycleStealingError]]:
        """The strict table tier over a whole batch, with per-lane outcomes.

        The table tier of the resilient serving chain
        (:class:`repro.core.serving.PlanServer`) needs tier isolation: a
        query the table cannot answer must not silently invoke the optimizer.
        Returns one entry per query, **in order**: a :class:`ServedPlan` for
        lanes the table can serve, and a :class:`CycleStealingError` for the
        rest (no table, out of bounds, missing corners).  Returning — rather
        than raising — the per-lane errors lets the serving chain mark
        individual lanes as tier misses without losing the rest of the batch.
        """
        fams = [str(f) for f in families]
        cs_arr = np.asarray(cs, dtype=float)
        vs_arr = np.asarray(param_values, dtype=float)
        n = len(fams)
        if cs_arr.shape != (n,) or vs_arr.shape != (n,):
            raise PlanCacheError(
                f"serve_from_table_batch needs equally long families/cs/"
                f"param_values, got {n}/{cs_arr.shape}/{vs_arr.shape}"
            )
        results: list[Union[ServedPlan, CycleStealingError, None]] = [None] * n
        for family in dict.fromkeys(fams):
            table = self.table(family)
            group = np.asarray([i for i, f in enumerate(fams) if f == family])
            if table is None:
                for i in group:
                    results[int(i)] = CycleStealingError(
                        f"no precomputed table for family {family!r} "
                        f"(cache_dir={self.cache_dir})"
                    )
                continue
            inb = table.contains_batch(cs_arr[group], vs_arr[group])
            for i in group[~inb]:
                results[int(i)] = CycleStealingError(
                    f"query (c={cs_arr[i]}, {table.param_name}={vs_arr[i]}) lies "
                    f"outside the {family!r} table bounds"
                )
            served = self._serve_from_table_batch(
                table, family, cs_arr[group[inb]], vs_arr[group[inb]], polish
            )
            for gi, res in zip(group[inb], served):
                results[int(gi)] = res
        return [r for r in results if r is not None]

    def _serve_from_table_batch(
        self,
        table: GuidelineTable,
        family: str,
        cs: FloatArray,
        vs: FloatArray,
        polish: bool,
    ) -> list[Union[ServedPlan, CycleStealingError]]:
        """Vectorized interpolate + polish for in-bounds lanes of one family.

        Every arithmetic step is elementwise per lane (clamping, bracket
        padding, the K-point polish scans, the final argmax), so a length-1
        call is bit-identical to the same lane inside any larger batch.
        """
        n = int(np.asarray(cs).size)
        if n == 0:
            return []
        fixed = dict(table.fixed)
        d = int(fixed.get("d", 1))
        est, lo0, hi0, valid = table.interpolate_t0_batch(cs, vs)
        results: list[Union[ServedPlan, CycleStealingError, None]] = [None] * n
        for i in np.nonzero(~valid)[0]:
            ci, cj = table.cell(float(cs[i]), float(vs[i]))
            results[int(i)] = CycleStealingError(
                f"table cell ({ci}, {cj}) for family {family!r} has missing corners"
            )
        live = np.nonzero(valid)[0]
        if live.size == 0:
            return [r for r in results if r is not None]
        lcs, lvs = cs[live], vs[live]
        lest, llo, lhi = est[live], lo0[live], hi0[live]
        # Pad the corner bracket: the true t0*(c, θ) is monotone but the
        # corners bound it only up to grid curvature.
        pad = 0.08 * np.maximum(lhi - llo, 0.0) + 1e-6 * lest
        lo = np.maximum(llo - pad, lcs * (1 + 1e-9))
        hi = np.minimum(lhi + pad, FAMILY_TABLE[family].lifespan(lvs) * (1 - 1e-12))
        t0 = np.minimum(np.maximum(lest, lo), hi)
        # The engine needs strictly productive periods; lanes whose whole
        # bracket collapsed to <= c (lifespan clamp below the overhead)
        # cannot be table-served.
        feasible = t0 > lcs
        for i in live[~feasible]:
            results[int(i)] = CycleStealingError(
                f"table-served t0 bracket for (c={cs[i]}, θ={vs[i]}) "
                f"produced no schedule"
            )
        keep = np.nonzero(feasible)[0]
        if keep.size == 0:
            return [r for r in results if r is not None]
        live = live[keep]
        lcs, lvs, lo, hi = lcs[keep], lvs[keep], lo[keep], hi[keep]
        best_t = t0[keep]
        if polish:
            best_t, batch = self._polish_batch(family, d, lcs, lvs, lo, hi, best_t)
        else:
            batch = generate_schedules_hetero(family, lcs, lvs, best_t, d=d)
        for k, i in enumerate(live):
            results[int(i)] = ServedPlan(
                family=family, c=float(cs[i]), param_value=float(vs[i]),
                t0=float(best_t[k]), schedule=batch.schedule(k),
                expected_work=float(batch.expected_work[k]),
                source="table", termination=batch.termination(k).value,
            )
        return [r for r in results if r is not None]

    def _polish_batch(
        self,
        family: str,
        d: int,
        lcs: FloatArray,
        lvs: FloatArray,
        lo: FloatArray,
        hi: FloatArray,
        best_t: FloatArray,
    ) -> tuple[FloatArray, HeteroBatchResult]:
        """Per-lane bracket refinement of ``t0`` (the vectorized polish).

        Each round scores ``best-so-far + K`` evenly spaced candidates per
        lane with **one** heterogeneous recurrence call and shrinks the
        bracket around the per-lane argmax (first index wins ties, so the
        carried-over best is never displaced by an equal candidate).
        Returns the final best ``t0`` per lane plus the scored batch whose
        winning rows carry the matching schedules.
        """
        n = lcs.size
        k_pts = _POLISH_POINTS
        cur_lo, cur_hi = lo.copy(), hi.copy()
        rows = np.arange(n)
        # Per-round invariants: the lane vectors and the productive floor.
        offsets = np.arange(k_pts)[None, :]
        floor = np.nextafter(lcs, np.inf)[:, None]
        flat_cs, flat_vs = np.repeat(lcs, k_pts + 1), np.repeat(lvs, k_pts + 1)
        for _ in range(_POLISH_ROUNDS):
            step = (cur_hi - cur_lo) / (k_pts - 1)
            cand = cur_lo[:, None] + offsets * step[:, None]
            cand[:, -1] = cur_hi  # endpoint exactly, no accumulation drift
            cand = np.concatenate([best_t[:, None], cand], axis=1)
            cand = np.clip(cand, floor, None)
            batch = generate_schedules_hetero(family, flat_cs, flat_vs, cand.ravel(), d=d)
            scores = batch.expected_work.reshape(n, k_pts + 1)
            pick = np.argmax(scores, axis=1)
            best_t = cand[rows, pick]
            cur_lo = np.maximum(best_t - step, lo)
            cur_hi = np.minimum(best_t + step, hi)
        winners = rows * (k_pts + 1) + pick
        final = HeteroBatchResult(
            family=family,
            cs=lcs,
            params=lvs,
            t0s=best_t,
            periods=batch.periods[winners],
            num_periods=batch.num_periods[winners],
            termination_codes=batch.termination_codes[winners],
            expected_work=batch.expected_work[winners],
        )
        return best_t, final

    def warm(
        self,
        families: Optional[list[str]] = None,
        n_jobs: Optional[int] = None,
        search_grid: int = 129,
        search_widen: float = 1.5,
        grids: Optional[Mapping[str, tuple[FloatArray, FloatArray]]] = None,
    ) -> dict[str, GuidelineTable]:
        """Precompute (and persist, when ``cache_dir`` is set) tables.

        Returns the freshly built tables by family name.
        """
        built: dict[str, GuidelineTable] = {}
        for family in families or list(TABLE_FAMILIES):
            c_grid = param_grid = None
            if grids and family in grids:
                c_grid, param_grid = grids[family]
            table = precompute_table(
                family,
                c_grid=c_grid,
                param_grid=param_grid,
                search_grid=search_grid,
                search_widen=search_widen,
                n_jobs=n_jobs,
                cache_dir=self.cache_dir,
            )
            if self.cache_dir is not None:
                save_table(table, table_path(self.cache_dir, family))
            self.add_table(table)
            built[family] = table
        return built
