"""PLAN-CACHE — warm vs cold schedule serving micro-benchmark.

Measures the two tiers the plan cache adds on top of the optimizers:

* **cache tier** — for each Section 4 family, times a cold
  :func:`optimize_schedule` call against repeated cache-served calls (same
  fingerprint, same ``(c, tolerance)`` key) and records the warm/cold
  speedup.  The served result must be bit-identical to the cold one.
* **table tier** — precomputes the per-family ``(c, parameter)`` guideline
  tables once, then serves a held-out off-grid query set via interpolation +
  polish and checks every answer against the full ``t_0`` optimizer
  (acceptance: relative expected-work error <= 1e-6).

Runs two ways:

* under pytest (``pytest benchmarks/bench_plan_cache.py -s``) — asserts a
  >= 50x warm speedup per family, bit-identical warm results, and the 1e-6
  off-grid accuracy bound;
* as a script (``python benchmarks/bench_plan_cache.py [out.json]``) —
  additionally writes a JSON artifact (default
  ``benchmarks/BENCH_plan_cache.json``) for CI trend tracking.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.analysis.tables_precompute import (
    TABLE_FAMILIES,
    TableServer,
    default_grids,
    make_family_life,
)
from repro.core.optimizer import optimize_t0_via_recurrence
from repro.core.plancache import PlanCache

WARM_REPEATS = 50
MIN_WARM_SPEEDUP = 50.0
MAX_TABLE_REL_ERROR = 1e-6
TABLE_GRID_POINTS = 9
HELDOUT_PER_FAMILY = 8

FAMILIES = [
    ("uniform", repro.UniformRisk(200.0), 2.0),
    ("poly3", repro.PolynomialRisk(3, 300.0), 2.0),
    ("geomdec", repro.GeometricDecreasingLifespan(1.2), 0.5),
    ("geominc", repro.GeometricIncreasingRisk(30.0), 1.0),
]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def measure_cache(warm_repeats: int = WARM_REPEATS) -> dict:
    """Cold vs cache-served :func:`optimize_schedule` per family."""
    families = {}
    for label, p, c in FAMILIES:
        cold_start = time.perf_counter()
        cold = repro.optimize_schedule(p, c)
        cold_s = time.perf_counter() - cold_start

        cache = PlanCache()
        first = repro.optimize_schedule(p, c, cache=cache)
        warm_s = _median_time(
            lambda: repro.optimize_schedule(p, c, cache=cache), warm_repeats
        )
        warm = repro.optimize_schedule(p, c, cache=cache)
        identical = (
            np.array_equal(first.schedule.periods, warm.schedule.periods)
            and first.expected_work == warm.expected_work
            and np.array_equal(cold.schedule.periods, warm.schedule.periods)
            and cold.expected_work == warm.expected_work
        )
        families[label] = {
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": cold_s / warm_s,
            "bit_identical": bool(identical),
            "cache_hits": cache.stats.hits,
        }
    return families


def measure_tables(
    grid_points: int = TABLE_GRID_POINTS, heldout: int = HELDOUT_PER_FAMILY
) -> dict:
    """Precompute tables, then check a held-out off-grid set vs the optimizer."""
    server = TableServer()
    grids = {fam: default_grids(fam, points=grid_points) for fam in TABLE_FAMILIES}
    warm_start = time.perf_counter()
    server.warm(grids=grids)
    warm_seconds = time.perf_counter() - warm_start

    rng = np.random.default_rng(2024)
    families = {}
    for fam in sorted(TABLE_FAMILIES):
        c_grid, param_grid = grids[fam]
        worst_rel = 0.0
        table_s = optimizer_s = 0.0
        served = 0
        for _ in range(heldout):
            # Off-grid interior points (log-uniform, away from the edges).
            c = float(np.exp(rng.uniform(np.log(c_grid[0] * 1.05),
                                         np.log(c_grid[-1] * 0.95))))
            v = float(np.exp(rng.uniform(np.log(param_grid[0] * 1.02),
                                         np.log(param_grid[-1] * 0.98))))
            start = time.perf_counter()
            answer = server.query(fam, c, v)
            table_s += time.perf_counter() - start
            p = make_family_life(fam, v, dict(TABLE_FAMILIES[fam][1]))
            start = time.perf_counter()
            _, _, ew = optimize_t0_via_recurrence(p, c)
            optimizer_s += time.perf_counter() - start
            worst_rel = max(worst_rel, abs(answer.expected_work - ew) / abs(ew))
            served += answer.source == "table"
        families[fam] = {
            "heldout_points": heldout,
            "served_from_table": served,
            "worst_rel_error": worst_rel,
            "table_seconds": table_s,
            "optimizer_seconds": optimizer_s,
        }
    return {
        "grid_points": grid_points,
        "warm_seconds": warm_seconds,
        "families": families,
        "worst_rel_error": max(f["worst_rel_error"] for f in families.values()),
    }


def measure(warm_repeats: int = WARM_REPEATS,
            grid_points: int = TABLE_GRID_POINTS) -> dict:
    cache = measure_cache(warm_repeats)
    tables = measure_tables(grid_points)
    return {
        "cache": cache,
        "min_warm_speedup": min(f["speedup"] for f in cache.values()),
        "tables": tables,
    }


def test_plan_cache_speedup_and_accuracy():
    record = measure()
    print("\nPLAN-CACHE (cold optimize_schedule vs cache-served):")
    for label, f in record["cache"].items():
        print(
            f"  {label:8s} cold {f['cold_seconds'] * 1e3:8.2f} ms, "
            f"warm {f['warm_seconds'] * 1e6:7.1f} us -> {f['speedup']:8.0f}x "
            f"(identical: {f['bit_identical']})"
        )
    t = record["tables"]
    print(f"  tables warmed in {t['warm_seconds']:.2f}s "
          f"({t['grid_points']}x{t['grid_points']} per family)")
    for fam, f in t["families"].items():
        print(
            f"  {fam:8s} table {f['table_seconds'] * 1e3:6.1f} ms vs optimizer "
            f"{f['optimizer_seconds'] * 1e3:6.1f} ms over {f['heldout_points']} "
            f"held-out points, worst rel E error {f['worst_rel_error']:.2e}"
        )
    for label, f in record["cache"].items():
        assert f["bit_identical"], label
        assert f["speedup"] >= MIN_WARM_SPEEDUP, (label, f)
    for fam, f in t["families"].items():
        assert f["served_from_table"] == f["heldout_points"], (fam, f)
        assert f["worst_rel_error"] <= MAX_TABLE_REL_ERROR, (fam, f)


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=Path,
        default=Path(__file__).parent / "BENCH_plan_cache.json",
        help="JSON artifact path (default: benchmarks/BENCH_plan_cache.json)",
    )
    parser.add_argument("--warm-repeats", type=int, default=WARM_REPEATS,
                        help="warm-path timing repeats (default: %(default)s)")
    parser.add_argument("--grid-points", type=int, default=TABLE_GRID_POINTS,
                        help="table grid resolution (default: %(default)s)")
    args = parser.parse_args(argv)
    record = measure(warm_repeats=args.warm_repeats, grid_points=args.grid_points)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {args.out}")
    ok = (
        record["min_warm_speedup"] >= MIN_WARM_SPEEDUP
        and all(f["bit_identical"] for f in record["cache"].values())
        and record["tables"]["worst_rel_error"] <= MAX_TABLE_REL_ERROR
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
