"""E-SHARD — multi-worker sharded serving: scaling curve + bit-parity gate.

Drives the 1024-query Zipf acceptance mix through the sharded serving tier
(:class:`repro.core.sharding.ShardedPlanServer`) at 1, 2, 4, and 8 worker
processes, each worker loading its own copy of the guideline tables and
owning its own plan cache and :class:`PlanServer` fallback chain, and
compares every configuration's plan stream **bit for bit** against the
single-process :meth:`PlanServer.serve_batch` reference — a fast wrong
answer is worthless, and a shard split that changed even one plan's source
label would invalidate the whole decomposition argument.

Acceptance is two-tier because throughput scaling is a property of the
*host*, not the code:

* **parity** (asserted everywhere): every worker count reproduces the
  single-process stream exactly, with zero fallback lanes and zero worker
  failures;
* **scaling** (asserted only where the host can physically deliver it):
  when the runner has >= 4 usable cores, best aggregate throughput must
  reach ``MIN_SCALING`` x the ``workers=1`` run.  On a single-core host
  the curve is flat by physics and only the parity gate applies; the
  emitted record carries ``cpu_count`` so trend dashboards can bucket
  runs by host shape.

Runs two ways:

* under pytest (``pytest benchmarks/bench_shard_scaling.py -s``) —
  asserts parity always, scaling when the host allows;
* as a script (``python benchmarks/bench_shard_scaling.py
  [BENCH_shard.json]``) — writes the JSON artifact for CI trend tracking
  (regenerated nightly).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.analysis.loadgen import run_shard_scaling

QUERIES = 1024
BATCH_SIZE = 256
DISTINCT = 64
SKEW = 1.1
SEED = 0
GRID_POINTS = 9
SEARCH_GRID = 129
WORKERS = (1, 2, 4, 8)
#: Required best-vs-workers=1 throughput ratio on hosts with enough cores.
MIN_SCALING = 4.0
#: Cores needed before the scaling gate is physically meaningful.
MIN_CORES_FOR_SCALING_GATE = 4


def measure(
    queries: int = QUERIES,
    batch_size: int = BATCH_SIZE,
    grid_points: int = GRID_POINTS,
    search_grid: int = SEARCH_GRID,
    workers: tuple[int, ...] = WORKERS,
) -> dict:
    record = run_shard_scaling(
        queries=queries,
        batch_size=batch_size,
        distinct=DISTINCT,
        skew=SKEW,
        seed=SEED,
        grid_points=grid_points,
        search_grid=search_grid,
        workers=workers,
    )
    record["generated_unix"] = time.time()
    return record


def _print_summary(record: dict) -> None:
    cfg = record["config"]
    print(
        f"\nE-SHARD ({cfg['queries']} queries, batch {cfg['batch_size']}, "
        f"{cfg['distinct']} distinct, zipf skew {cfg['skew']:g}, "
        f"{record['cpu_count']} cpu(s)):"
    )
    sp = record["single_process"]
    print(
        f"  single-proc  {sp['throughput_qps']:10.0f} q/s   "
        f"p50 {sp['p50'] * 1e3:7.3f} ms  p95 {sp['p95'] * 1e3:7.3f} ms  "
        f"p99 {sp['p99'] * 1e3:7.3f} ms"
    )
    for entry in record["scaling"]:
        scale = record["scaling_vs_one"][str(entry["workers"])]
        print(
            f"  workers={entry['workers']:<4d} {entry['throughput_qps']:10.0f} q/s   "
            f"p50 {entry['p50'] * 1e3:7.3f} ms  p95 {entry['p95'] * 1e3:7.3f} ms  "
            f"p99 {entry['p99'] * 1e3:7.3f} ms  x{scale:.2f}  "
            f"(parity {'ok' if entry['parity_ok'] else 'FAILED'})"
        )
    print(
        f"  best scaling {record['best_scaling']:.2f}x over workers=1  "
        f"(parity {'ok' if record['parity_ok'] else 'FAILED'})"
    )


def test_shard_scaling_parity_and_throughput():
    record = measure()
    _print_summary(record)
    assert record["parity_ok"], (
        "sharded plan stream differs from the single-process reference: "
        f"{[(e['workers'], e['parity_mismatches']) for e in record['scaling']]}"
    )
    for entry in record["scaling"]:
        assert entry["fallback_lanes"] == 0, entry
        assert entry["worker_failures"] == 0, entry
        assert entry["throughput_qps"] > 0, entry
    cores = record["cpu_count"] or 1
    if cores >= MIN_CORES_FOR_SCALING_GATE:
        assert record["best_scaling"] >= MIN_SCALING, (
            f"best scaling {record['best_scaling']:.2f}x < {MIN_SCALING}x "
            f"on a {cores}-core host"
        )


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=Path,
        default=Path(__file__).parent.parent / "BENCH_shard.json",
        help="JSON artifact path (default: repo-root BENCH_shard.json)",
    )
    parser.add_argument("--queries", type=int, default=QUERIES,
                        help="stream length (default: %(default)s)")
    parser.add_argument("--batch-size", type=int, default=BATCH_SIZE,
                        help="serve_batch chunk size (default: %(default)s)")
    parser.add_argument("--grid-points", type=int, default=GRID_POINTS,
                        help="warmed table resolution (default: %(default)s)")
    parser.add_argument("--search-grid", type=int, default=SEARCH_GRID,
                        help="t0 search resolution while warming (default: %(default)s)")
    parser.add_argument("--workers", type=int, nargs="+", default=list(WORKERS),
                        help="worker counts to sweep (default: %(default)s)")
    args = parser.parse_args(argv)
    record = measure(
        queries=args.queries,
        batch_size=args.batch_size,
        grid_points=args.grid_points,
        search_grid=args.search_grid,
        workers=tuple(args.workers),
    )
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    _print_summary(record)
    print(f"\nwrote {args.out}")
    cores = record["cpu_count"] or 1
    ok = record["parity_ok"]
    if cores >= MIN_CORES_FOR_SCALING_GATE and record["best_scaling"] < MIN_SCALING:
        print(f"FAIL: best scaling {record['best_scaling']:.2f}x < {MIN_SCALING}x")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
