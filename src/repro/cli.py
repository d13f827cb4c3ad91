"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``schedule``
    Compute a guideline schedule for a named life-function family and print
    the bracket, periods, and expected work.
``compare``
    Compare guideline / greedy / progressive / exact-optimal expected work
    for one family instance.
``fit``
    Read absence durations (one float per line, ``-`` for stdin), fit every
    family, and print the best schedule for a given overhead.
``mc``
    Monte-Carlo validation of eq. (2.1): simulate episodes of the guideline
    schedule and compare the sample mean against the analytic expected work.
``t0opt``
    Optimize ``t_0`` over the Corollary 3.1 recurrence family at a chosen
    grid resolution, printing the chosen ``t_0``, period count, and
    expected work.
``plancache``
    Manage the schedule plan cache and precomputed guideline tables:
    ``warm`` sweeps the per-family ``(c, parameter)`` grids and persists
    ``t0*``/``E*`` tables, ``query`` serves a schedule through the
    table → cache → optimizer → guideline chain and names the tier that
    answered, ``stats`` reports cache contents,
    ``clear`` empties the disk tier.
``servebench``
    Load-generator benchmark for the serving stack: a Zipf-skewed query
    stream served scalar, batched (``serve_batch``), and open-loop through
    the micro-batching front door, reporting throughput, p50/p95/p99
    latency, the batch speedup, and a bit-identical parity check
    (``--quick`` for the ~2 s tier-1 smoke, ``--out BENCH_serving.json``
    for the nightly artifact).  ``--workers N`` switches to the sharded
    multi-worker tier: a scaling curve over 1..N shard processes, each
    count bit-parity gated against the single-process server
    (``--out BENCH_shard.json``; ``--min-scaling`` opts into the
    throughput gate on multi-core hosts).
``chaos``
    Run the fault-matrix sweep (every fault class x a rate grid x seeds)
    through the resilient farm + serving stack, print the goodput
    degradation summary, and optionally write the ``BENCH_chaos.json``
    artifact via ``--out``.
``fleet``
    Multi-host fleet simulation on the vectorized event core: plan
    guideline schedules for every host in one batched call, then advance
    all hosts through one event loop under a dispatch policy
    (``sharing`` / ``stealing`` / ``stealing-latency``; default all
    three), printing makespan, goodput, steal rate, events/sec, and the
    mean-field makespan error per policy.  ``--core`` picks the event
    core (``batched`` calendar queue, default, or the ``heap`` oracle)
    and ``--bucket-width`` tunes the batched core's bucket span.
    ``--quick`` is the tier-1 smoke.  Its hard gates are the n = 1
    bit-parity gate against ``run_farm`` for both cores, the
    batched-vs-heap cross-core gate, the bulk-seeding gate (host streams
    equal ``default_rng``'s) and the cyclic-garbage gate (no run leaves
    reference cycles, so pausing the collector in ``run_fleet`` skips only
    scans); then it prints a small 16-host policy table.  ``--profile``
    wraps the run in cProfile and prints the top hotspots.  ``--out``
    writes the JSON record.

``compare`` and ``t0opt`` accept ``--cache-dir`` to ride the plan cache:
repeated invocations for the same family instance are answered from disk.

Examples
--------
::

    python -m repro schedule --family uniform --lifespan 480 --c 3
    python -m repro schedule --family geomdec --a 1.1 --c 0.5 --t0-strategy mid
    python -m repro compare --family geominc --lifespan 30 --c 1
    python -m repro fit durations.txt --c 2.0
    python -m repro mc --family uniform --lifespan 480 --c 3 --n 200000
    python -m repro t0opt --family uniform --lifespan 480 --c 3 --grid 257
    python -m repro plancache warm --family uniform --grid-points 9
    python -m repro plancache query --family uniform --c 2.4 --value 333
    python -m repro plancache stats
    python -m repro servebench --quick
    python -m repro servebench --out BENCH_serving.json --min-speedup 10
    python -m repro servebench --workers 2 --quick
    python -m repro servebench --workers 8 --out BENCH_shard.json
    python -m repro chaos --quick
    python -m repro chaos --out BENCH_chaos.json --rates 0 0.45 0.9
    python -m repro fleet --quick
    python -m repro fleet --hosts 1000 --policy stealing --seed 7
    python -m repro fleet --hosts 100000 --core heap --policy sharing
    python -m repro fleet --hosts 1000 --profile --profile-top 15
    python -m repro fleet --hosts 100 --hetero --out fleet.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import core
from .analysis.tables import format_table
from .analysis.tables_precompute import TABLE_FAMILIES
from .core.life_functions.families import make
from .exceptions import CycleStealingError

__all__ = ["main", "build_parser", "make_life_function"]


def make_life_function(args: argparse.Namespace) -> core.LifeFunction:
    """Construct the life function a CLI invocation names."""
    family = args.family
    if family == "weibull":
        return core.WeibullLife(k=_require(args, "k"), scale=_require(args, "scale"))
    if family not in TABLE_FAMILIES:
        raise SystemExit(f"unknown family: {family}")
    param, fixed = TABLE_FAMILIES[family]
    d = int(_require(args, "d")) if "d" in fixed else 1
    return make(family, _require(args, "lifespan" if param == "L" else param), d)


def _require(args: argparse.Namespace, name: str) -> float:
    value = getattr(args, name, None)
    if value is None:
        raise SystemExit(f"--{name.replace('_', '-')} is required for --family {args.family}")
    return float(value)


def _add_family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True,
                        choices=["uniform", "poly", "geomdec", "geominc", "weibull"])
    parser.add_argument("--lifespan", "--L", dest="lifespan", type=float,
                        help="potential lifespan L (uniform/poly/geominc)")
    parser.add_argument("--d", type=int, help="polynomial degree (poly)")
    parser.add_argument("--a", type=float, help="risk factor a > 1 (geomdec)")
    parser.add_argument("--k", type=float, help="Weibull shape")
    parser.add_argument("--scale", type=float, help="Weibull scale")
    parser.add_argument("--c", type=float, required=True,
                        help="communication overhead per period")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cycle-stealing scheduling guidelines (Rosenberg, 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="compute a guideline schedule")
    _add_family_args(p_sched)
    p_sched.add_argument("--t0", type=float, default=None,
                         help="explicit initial period (skips the search)")
    p_sched.add_argument("--t0-strategy", default="optimize",
                         choices=["optimize", "lower", "mid", "upper"])

    p_cmp = sub.add_parser("compare", help="guideline vs greedy vs optimal")
    _add_family_args(p_cmp)
    p_cmp.add_argument("--cache-dir", default=None,
                       help="plan-cache directory; repeat runs hit the cache")

    p_fit = sub.add_parser("fit", help="fit a life function to durations and schedule")
    p_fit.add_argument("path", help="file of absence durations, one per line ('-' = stdin)")
    p_fit.add_argument("--c", type=float, required=True)

    p_mc = sub.add_parser("mc", help="Monte-Carlo validation of eq. (2.1)")
    _add_family_args(p_mc)
    p_mc.add_argument("--n", type=int, default=100_000,
                      help="number of simulated episodes (default 100000)")
    p_mc.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_mc.add_argument("--confidence", type=float, default=0.95,
                      help="CI coverage probability (default 0.95)")

    p_t0 = sub.add_parser("t0opt", help="optimize t0 over the recurrence family")
    _add_family_args(p_t0)
    p_t0.add_argument("--grid", type=int, default=129,
                      help="t0 grid resolution over the bracket (default 129)")
    p_t0.add_argument("--widen", type=float, default=1.5,
                      help="bracket widening factor (default 1.5)")
    p_t0.add_argument("--cache-dir", default=None,
                      help="plan-cache directory; repeat runs hit the cache")

    p_pc = sub.add_parser("plancache",
                          help="manage the plan cache and precomputed tables")
    pc_sub = p_pc.add_subparsers(dest="action", required=True)

    pc_warm = pc_sub.add_parser("warm", help="precompute per-family guideline tables")
    pc_warm.add_argument("--family", action="append", default=None,
                         choices=sorted(TABLE_FAMILIES),
                         help="family to warm (repeatable; default: all)")
    pc_warm.add_argument("--cache-dir", default=None,
                         help="cache directory (default: $REPRO_CACHE_DIR or XDG)")
    pc_warm.add_argument("--grid-points", type=int, default=17,
                         help="points per table axis (default 17)")
    pc_warm.add_argument("--search-grid", type=int, default=129,
                         help="t0 search resolution per grid point (default 129)")
    pc_warm.add_argument("--n-jobs", type=int, default=None,
                         help="process-pool workers for the sweep (default serial)")

    pc_query = pc_sub.add_parser("query", help="serve a schedule from the tables")
    pc_query.add_argument("--family", required=True, choices=sorted(TABLE_FAMILIES))
    pc_query.add_argument("--c", type=float, required=True,
                          help="communication overhead per period")
    pc_query.add_argument("--value", type=float, required=True,
                          help="family parameter (L for uniform/poly/geominc, a for geomdec)")
    pc_query.add_argument("--cache-dir", default=None)

    pc_stats = pc_sub.add_parser("stats", help="report cache and table contents")
    pc_stats.add_argument("--cache-dir", default=None)

    pc_clear = pc_sub.add_parser("clear", help="empty the disk cache tier")
    pc_clear.add_argument("--cache-dir", default=None)
    pc_clear.add_argument("--tables", action="store_true",
                          help="also delete the precomputed tables")

    p_sb = sub.add_parser(
        "servebench",
        help="load-generator benchmark: scalar vs batched plan serving")
    p_sb.add_argument("--queries", type=int, default=1024,
                      help="stream length (default 1024)")
    p_sb.add_argument("--batch-size", type=int, default=256,
                      help="serve_batch chunk size (default 256)")
    p_sb.add_argument("--distinct", type=int, default=64,
                      help="distinct query pool size (default 64)")
    p_sb.add_argument("--skew", type=float, default=1.1,
                      help="Zipf popularity exponent (default 1.1)")
    p_sb.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_sb.add_argument("--grid-points", type=int, default=9,
                      help="warmed table resolution per axis (default 9)")
    p_sb.add_argument("--search-grid", type=int, default=129,
                      help="t0 search resolution while warming (default 129)")
    p_sb.add_argument("--quick", action="store_true",
                      help="~2s smoke config: one family, tiny table, short stream")
    p_sb.add_argument("--out", default=None,
                      help="write the JSON record here (e.g. BENCH_serving.json)")
    p_sb.add_argument("--min-speedup", type=float, default=None,
                      help="fail (exit 1) if batch speedup falls below this")
    p_sb.add_argument("--workers", type=int, default=None, metavar="N",
                      help="sharded mode: scaling curve over 1..N worker "
                           "processes (powers of two), bit-parity gated "
                           "against the single-process server")
    p_sb.add_argument("--min-scaling", type=float, default=None,
                      help="with --workers: fail (exit 1) if best aggregate "
                           "throughput over the workers=1 run falls below "
                           "this (opt-in: flat on single-core hosts)")
    p_sb.add_argument("--mp-method", default=None,
                      choices=("fork", "spawn", "forkserver"),
                      help="multiprocessing start method (default: platform)")

    p_chaos = sub.add_parser(
        "chaos", help="fault-matrix sweep: goodput under injected faults")
    p_chaos.add_argument("--out", default=None,
                         help="write the JSON report here (e.g. BENCH_chaos.json)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="short horizon, one seed (the tier-1 smoke config)")
    p_chaos.add_argument("--classes", nargs="+", default=None,
                         help="fault classes to sweep (default: all)")
    p_chaos.add_argument("--rates", nargs="+", type=float,
                         default=[0.0, 0.45, 0.9],
                         help="increasing fault rates in [0, 1] (default: 0 0.45 0.9)")
    p_chaos.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2],
                         help="cell seeds to average over (default: 0 1 2)")

    p_fleet = sub.add_parser(
        "fleet",
        help="multi-host fleet simulation: share/steal dispatch at scale")
    p_fleet.add_argument("--hosts", type=int, default=100,
                         help="number of hosts (default 100)")
    p_fleet.add_argument("--policy", default="all",
                         choices=("all",) + tuple(
                             ("sharing", "stealing", "stealing-latency")),
                         help="dispatch policy (default: all three)")
    p_fleet.add_argument("--family", default="uniform",
                         choices=["uniform", "poly", "geomdec", "geominc"],
                         help="owner life-function family (default uniform)")
    p_fleet.add_argument("--hetero", action="store_true",
                         help="heterogeneous hosts: log-uniform draws of "
                              "(c, parameter, speed, presence) per host")
    p_fleet.add_argument("--work-per-host", type=float, default=None,
                         help="task time per host (default 128, or 32 in "
                              "hetero mode)")
    p_fleet.add_argument("--task-duration", type=float, default=0.03125,
                         help="uniform task duration (default 0.03125; keep "
                              "dyadic for exact parity)")
    p_fleet.add_argument("--horizon", type=float, default=None,
                         help="simulation horizon (default: 4x the "
                              "mean-field makespan)")
    p_fleet.add_argument("--steal-fraction", type=float, default=0.5,
                         help="fraction of the victim pool a steal takes "
                              "(default 0.5)")
    p_fleet.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_fleet.add_argument("--grid", type=int, default=9,
                         help="t0 grid lanes per host while planning (default 9)")
    p_fleet.add_argument("--core", default="batched",
                         choices=("batched", "heap"),
                         help="event core: bucketed calendar queue (default) "
                              "or the scalar binary-heap oracle")
    p_fleet.add_argument("--bucket-width", type=float, default=None,
                         help="calendar-queue bucket width in simulated time "
                              "(batched core only; default: auto)")
    p_fleet.add_argument("--quick", action="store_true",
                         help="tier-1 smoke: n=1 parity gate vs run_farm for "
                              "both cores + the batched-vs-heap cross-core "
                              "gate + the bulk-seeding gate + the "
                              "cyclic-garbage gate + a 16-host "
                              "policy table (~2s)")
    p_fleet.add_argument("--profile", action="store_true",
                         help="run under cProfile and print the top hotspots "
                              "by cumulative time")
    p_fleet.add_argument("--profile-top", type=int, default=20,
                         help="rows in the --profile hotspot table "
                              "(default 20)")
    p_fleet.add_argument("--out", default=None,
                         help="write the JSON record here")
    return parser


def _cmd_schedule(args: argparse.Namespace) -> int:
    p = make_life_function(args)
    result = core.guideline_schedule(
        p, args.c, t0=args.t0, t0_strategy=args.t0_strategy
    )
    print(f"life function : {p!r}")
    print(f"t0 bracket    : [{result.bracket.lo:.4g}, {result.bracket.hi:.4g}]")
    print(f"t0 chosen     : {result.t0:.6g}  (strategy: {result.t0_strategy})")
    print(f"periods ({result.schedule.num_periods}):")
    print("  " + ", ".join(f"{t:.4g}" for t in result.schedule.periods))
    print(f"expected work : {result.expected_work:.6g}")
    print(f"termination   : {result.termination.value}")
    return 0


def _make_cache(args: argparse.Namespace) -> Optional[core.PlanCache]:
    """A disk-backed plan cache when ``--cache-dir`` was given."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    return core.default_plan_cache(cache_dir)


def _cmd_compare(args: argparse.Namespace) -> int:
    p = make_life_function(args)
    c = args.c
    cache = _make_cache(args)
    rows = []
    guided = core.guideline_schedule(p, c, cache=cache)
    rows.append(["guideline", guided.schedule.num_periods, guided.expected_work])
    greedy = core.greedy_schedule(p, c)
    rows.append(["greedy", greedy.num_periods, greedy.expected_work(p, c)])
    prog = core.progressive_schedule(p, c)
    rows.append(["progressive", prog.num_periods, prog.expected_work(p, c)])
    optimal = core.optimize_schedule(p, c, cache=cache)
    rows.append(["optimal (NLP)", optimal.num_periods, optimal.expected_work])
    print(format_table(["strategy", "periods", "expected work"], rows,
                       title=f"{p!r}, c = {c}"))
    if cache is not None:
        s = cache.stats
        print(f"plan cache    : {s.hits} memory + {s.disk_hits} disk hits, "
              f"{s.misses} misses")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .traces import fit_best

    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path) as fh:
            text = fh.read()
    durations = np.array([float(tok) for tok in text.split()], dtype=float)
    if durations.size < 2:
        raise SystemExit("need at least 2 durations")
    fit = fit_best(durations)
    print(f"fitted: {fit.family}  (KS distance {fit.ks:.4f}, "
          f"loglik {fit.log_likelihood:.4g})")
    result = core.guideline_schedule(fit.life, args.c)
    print(f"schedule ({result.schedule.num_periods} periods): "
          + ", ".join(f"{t:.4g}" for t in result.schedule.periods))
    print(f"expected work: {result.expected_work:.6g}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    from .simulation import estimate_expected_work

    if not 0.0 < args.confidence < 1.0:
        raise SystemExit(f"--confidence must lie in (0, 1), got {args.confidence}")
    p = make_life_function(args)
    result = core.guideline_schedule(p, args.c)
    rng = np.random.default_rng(args.seed)
    est = estimate_expected_work(result.schedule, p, args.c, n=args.n, rng=rng)
    z = abs(est.mean - result.expected_work) / max(est.stderr, 1e-15)
    lo, hi = est.ci(args.confidence)
    print(f"life function : {p!r}")
    print(f"episodes      : n = {args.n:,}, seed = {args.seed}")
    print(f"analytic E    : {result.expected_work:.6g}")
    print(f"MC mean       : {est.mean:.6g} ± {est.stderr:.3g}")
    print(f"{100 * args.confidence:.0f}% CI        : [{lo:.6g}, {hi:.6g}]")
    print(f"|z|           : {z:.3f}")
    print(f"consistent    : {est.consistent_with(result.expected_work)}")
    return 0 if est.consistent_with(result.expected_work, z=4.5) else 1


def _cmd_t0opt(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise SystemExit(f"--grid must be >= 2, got {args.grid}")
    p = make_life_function(args)
    t0, outcome, ew = core.optimize_t0_via_recurrence(
        p, args.c, grid=args.grid, widen=args.widen, cache=_make_cache(args),
    )
    print(f"life function : {p!r}")
    print(f"search        : grid = {args.grid}, widen = {args.widen}")
    print(f"t0 chosen     : {t0:.6g}")
    print(f"periods       : {outcome.schedule.num_periods}")
    print(f"termination   : {outcome.termination.value}")
    print(f"expected work : {ew:.6g}")
    return 0


def _cmd_plancache(args: argparse.Namespace) -> int:
    import shutil
    import time

    from .analysis.tables_precompute import TableServer, default_grids, table_path

    cache_dir = args.cache_dir or str(core.default_cache_dir())

    if args.action == "warm":
        families = args.family or sorted(TABLE_FAMILIES)
        if args.grid_points < 2:
            raise SystemExit(f"--grid-points must be >= 2, got {args.grid_points}")
        grids = {
            fam: default_grids(fam, points=args.grid_points) for fam in families
        }
        server = TableServer(cache_dir=cache_dir)
        start = time.perf_counter()
        built = server.warm(families=families, n_jobs=args.n_jobs,
                            search_grid=args.search_grid, grids=grids)
        elapsed = time.perf_counter() - start
        for fam, table in built.items():
            n_c, n_p = table.shape
            print(f"warmed {fam:8s}: {n_c}x{n_p} grid "
                  f"(c in [{table.c_grid[0]:.3g}, {table.c_grid[-1]:.3g}], "
                  f"{table.param_name} in "
                  f"[{table.param_grid[0]:.3g}, {table.param_grid[-1]:.3g}]) "
                  f"-> {table_path(cache_dir, fam)}")
        print(f"{len(built)} table(s) in {elapsed:.2f}s, cache dir {cache_dir}")
        return 0

    if args.action == "query":
        server = core.PlanServer(table_server=TableServer(cache_dir),
                                 cache=core.default_plan_cache(cache_dir))
        start = time.perf_counter()
        try:
            answer = server.serve(args.family, args.c, args.value)
        except (CycleStealingError, ValueError) as exc:
            raise SystemExit(f"plancache query: {exc}") from exc
        elapsed = time.perf_counter() - start
        print(f"family        : {args.family} "
              f"({TABLE_FAMILIES[args.family][0]} = {args.value}, c = {args.c})")
        print(f"source        : {answer.source}")
        print(f"t0            : {answer.t0:.6g}")
        print(f"periods       : {answer.schedule.num_periods}")
        print(f"expected work : {answer.expected_work:.6g}")
        print(f"latency       : {elapsed * 1e3:.2f} ms")
        return 0

    if args.action == "stats":
        cache = core.PlanCache(cache_dir=cache_dir)
        print(f"cache dir     : {cache_dir}")
        print(f"schema        : v{core.CACHE_SCHEMA_VERSION}")
        print(f"disk entries  : {cache.disk_entries()}")
        tables = TableServer(cache_dir)
        for fam in sorted(TABLE_FAMILIES):
            path = table_path(cache_dir, fam)
            table = tables.table(fam)
            if table is None:
                status = "missing" if not path.exists() else "corrupt/incompatible"
                print(f"table {fam:8s}: {status}")
            else:
                n_c, n_p = table.shape
                print(f"table {fam:8s}: {n_c}x{n_p} grid at {path}")
        return 0

    if args.action == "clear":
        cache = core.PlanCache(cache_dir=cache_dir)
        n_entries = cache.disk_entries()
        cache.clear(memory=True, disk=True)
        print(f"cleared {n_entries} cache entr{'y' if n_entries == 1 else 'ies'} "
              f"under {cache_dir}")
        if args.tables:
            tables_root = table_path(cache_dir, "x").parent
            n_tables = len(list(tables_root.glob("*.npz"))) if tables_root.is_dir() else 0
            shutil.rmtree(tables_root, ignore_errors=True)
            print(f"cleared {n_tables} precomputed table(s)")
        return 0

    raise SystemExit(f"unknown plancache action {args.action}")  # pragma: no cover


def _cmd_servebench(args: argparse.Namespace) -> int:
    import json

    from .analysis.loadgen import run_servebench

    if args.workers is not None:
        return _cmd_servebench_sharded(args)
    record = run_servebench(
        queries=args.queries,
        batch_size=args.batch_size,
        distinct=args.distinct,
        skew=args.skew,
        seed=args.seed,
        quick=args.quick,
        grid_points=args.grid_points,
        search_grid=args.search_grid,
    )
    cfg = record["config"]
    print(f"servebench    : {cfg['queries']} queries, batch {cfg['batch_size']}, "
          f"{cfg['distinct']} distinct (zipf skew {cfg['skew']:g}), "
          f"families {', '.join(cfg['families'])}")
    print(f"tables warmed : {record['warm_seconds']:.2f}s "
          f"({cfg['grid_points']}x{cfg['grid_points']} per family)")
    for mode in ("scalar", "batched", "open_loop"):
        if mode not in record:
            continue
        r = record[mode]
        print(f"{mode:13s}: {r['throughput_qps']:10.0f} q/s   "
              f"p50 {r['p50'] * 1e3:7.3f} ms  p95 {r['p95'] * 1e3:7.3f} ms  "
              f"p99 {r['p99'] * 1e3:7.3f} ms")
    print(f"batch speedup : {record['batch_speedup']:.1f}x  "
          f"(parity: {'ok' if record['parity_ok'] else 'FAILED'}, "
          f"{record['batched_stats']['coalesced']} duplicate(s) coalesced)")
    if args.out is not None:
        out = Path(args.out)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}")
    ok = record["parity_ok"] and record["batched"]["throughput_qps"] > 0
    if args.min_speedup is not None and record["batch_speedup"] < args.min_speedup:
        print(f"FAIL: batch speedup {record['batch_speedup']:.1f}x "
              f"< required {args.min_speedup:g}x")
        ok = False
    return 0 if ok else 1


def _cmd_servebench_sharded(args: argparse.Namespace) -> int:
    """The ``--workers N`` branch: sharded scaling curve + parity gate."""
    import json

    from .analysis.loadgen import run_shard_scaling

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    counts = [1]
    while counts[-1] * 2 <= args.workers:
        counts.append(counts[-1] * 2)
    if counts[-1] != args.workers:
        counts.append(args.workers)

    record = run_shard_scaling(
        queries=args.queries,
        batch_size=args.batch_size,
        distinct=args.distinct,
        skew=args.skew,
        seed=args.seed,
        quick=args.quick,
        grid_points=args.grid_points,
        search_grid=args.search_grid,
        workers=counts,
        mp_method=args.mp_method,
    )
    cfg = record["config"]
    print(f"shard scaling : {cfg['queries']} queries, batch {cfg['batch_size']}, "
          f"{cfg['distinct']} distinct (zipf skew {cfg['skew']:g}), "
          f"families {', '.join(cfg['families'])}, "
          f"{record['cpu_count']} cpu(s)")
    print(f"tables warmed : {record['warm_seconds']:.2f}s (one table dir)")
    sp = record["single_process"]
    print(f"single-proc   : {sp['throughput_qps']:10.0f} q/s   "
          f"p50 {sp['p50'] * 1e3:7.3f} ms  p95 {sp['p95'] * 1e3:7.3f} ms  "
          f"p99 {sp['p99'] * 1e3:7.3f} ms")
    for entry in record["scaling"]:
        scale = record["scaling_vs_one"][str(entry["workers"])]
        print(f"workers={entry['workers']:<5d}: {entry['throughput_qps']:10.0f} q/s   "
              f"p50 {entry['p50'] * 1e3:7.3f} ms  p95 {entry['p95'] * 1e3:7.3f} ms  "
              f"p99 {entry['p99'] * 1e3:7.3f} ms  "
              f"x{scale:.2f}  (parity: {'ok' if entry['parity_ok'] else 'FAILED'})")
    print(f"best scaling  : {record['best_scaling']:.2f}x over workers=1  "
          f"(parity: {'ok' if record['parity_ok'] else 'FAILED'})")
    if args.out is not None:
        out = Path(args.out)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}")
    ok = record["parity_ok"]
    if args.min_scaling is not None and record["best_scaling"] < args.min_scaling:
        print(f"FAIL: best scaling {record['best_scaling']:.2f}x "
              f"< required {args.min_scaling:g}x")
        ok = False
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import time

    from .analysis.chaos import chaos_matrix, report_to_json

    start = time.perf_counter()
    report = chaos_matrix(
        classes=args.classes, rates=args.rates, seeds=args.seeds, quick=args.quick
    )
    elapsed = time.perf_counter() - start
    rows = [
        [fc, ", ".join(f"{g:.3f}" for g in s["mean_goodput"]),
         "yes" if s["monotone"] else "NO",
         "yes" if s["degrades"] else "NO"]
        for fc, s in report["summary"].items()
    ]
    rate_label = "goodput @ " + ", ".join(f"{r:g}" for r in report["rates"])
    print(format_table(["fault class", rate_label, "monotone", "degrades"], rows,
                       title=f"chaos matrix ({len(report['cells'])} cells, "
                             f"{elapsed:.1f}s)"))
    if args.out is not None:
        path = report_to_json(report, args.out)
        print(f"wrote {path}")
    healthy = all(
        s["monotone"] and s["degrades"] for s in report["summary"].values()
    )
    return 0 if healthy else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import functools
    import json
    import time

    from .analysis.fleetbench import (
        auto_horizon,
        cross_core_check,
        cycle_check,
        fleet_workload,
        parity_check,
        run_policy_comparison,
        seeding_check,
    )
    from .now.fleet import FLEET_POLICIES, FleetSpec, plan_fleet_schedules

    if args.hosts < 1:
        raise SystemExit(f"--hosts must be >= 1, got {args.hosts}")
    policies = FLEET_POLICIES if args.policy == "all" else (args.policy,)

    if args.quick:
        seed = args.seed + 7
        gates = [
            (f"n=1 parity [{core:>7}]",
             functools.partial(parity_check, seed=seed, family=args.family,
                               core=core))
            for core in ("batched", "heap")
        ] + [
            ("cross-core parity",
             functools.partial(cross_core_check, seed=seed,
                               family=args.family)),
            ("bulk seeding", functools.partial(seeding_check, seed=seed)),
            ("cyclic garbage", functools.partial(cycle_check, seed=seed)),
        ]
        ok = True
        for label, check in gates:
            start = time.perf_counter()
            gate = check()
            print(f"{label:<19}: {'ok' if gate['ok'] else 'FAILED'} "
                  f"({gate['checks']} checks, "
                  f"{time.perf_counter() - start:.1f}s)")
            for line in gate["mismatches"]:
                print(f"  MISMATCH {line}")
            ok = ok and gate["ok"]
        if not ok:
            return 1
        n_hosts, work = 16, 8.0
    else:
        n_hosts = args.hosts
        work = args.work_per_host
        if work is None:
            work = 32.0 if args.hetero else 128.0

    if args.hetero:
        spec = FleetSpec.heterogeneous(n_hosts, family=args.family,
                                       seed=args.seed)
    else:
        spec = FleetSpec.homogeneous(n_hosts, family=args.family,
                                     seed=args.seed)
    durations = fleet_workload(n_hosts, work, args.task_duration)
    plan = plan_fleet_schedules(spec, grid=args.grid)
    horizon = args.horizon
    if horizon is None:
        horizon = auto_horizon(spec, plan, float(np.sum(durations)))
    if args.profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
    record = run_policy_comparison(
        spec, durations, horizon, policies=policies, plan=plan,
        grid=args.grid, steal_fraction=args.steal_fraction,
        core=args.core, bucket_width=args.bucket_width,
    )
    if args.profile:
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(max(1, args.profile_top))
        print(buf.getvalue().rstrip())

    rows = []
    for name, r in record["policies"].items():
        mf_err = r["mean_field"]["makespan_rel_error"]
        rows.append([
            name,
            "yes" if r["finished"] else "NO",
            f"{r['makespan']:.4g}",
            f"{r['goodput']:.4g}",
            f"{r['steal_rate']:.3f}",
            f"{r['events']:,}",
            f"{r['events_per_sec']:,.0f}",
            "-" if mf_err is None else f"{100 * mf_err:.1f}%",
        ])
    print(format_table(
        ["policy", "done", "makespan", "goodput", "steal rate", "events",
         "events/s", "mf err"],
        rows,
        title=f"fleet: {n_hosts} hosts, {record['tasks']:,} tasks, "
              f"{record['family']}{' hetero' if args.hetero else ''}, "
              f"horizon {horizon:.4g}, {args.core} core",
    ))
    if args.out is not None:
        out = Path(args.out)
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit status."""
    args = build_parser().parse_args(argv)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "mc":
        return _cmd_mc(args)
    if args.command == "t0opt":
        return _cmd_t0opt(args)
    if args.command == "plancache":
        return _cmd_plancache(args)
    if args.command == "servebench":
        return _cmd_servebench(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    raise SystemExit(f"unknown command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
