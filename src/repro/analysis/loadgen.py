"""Load generation for the plan-serving stack (the ``servebench`` harness).

The serving path answers "what schedule should workstation *i* run?" —
under the ROADMAP's heavy-traffic framing that question arrives as a
*stream* of ``(family, c, θ)`` queries with a popularity skew: a few hot
(cluster, workload) configurations dominate, with a long tail of rare
ones.  This module synthesizes such streams and drives the three serving
front ends against the same stream:

* **closed-loop scalar** — one :meth:`PlanServer.serve` call per query,
  back to back (the pre-batching baseline; per-call interpreter overhead
  dominates);
* **closed-loop batched** — the stream chopped into ``batch_size`` chunks
  through :meth:`PlanServer.serve_batch` (one vectorized pass per tier,
  duplicates coalesced);
* **open-loop concurrent** — per-query :meth:`BatchingPlanServer.submit`
  from worker threads, exercising singleflight coalescing and the
  size-or-deadline flush.

Every runner reports wall-clock throughput plus p50/p95/p99 latency, and
:func:`run_servebench` differentially checks that the batched plans are
**bit-identical** to the scalar loop's before reporting a speedup —
a fast wrong answer is worthless.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from ..core.plancache import PlanCache
from ..core.serving import BatchingPlanServer, PlanServer, ServedPlan
from ..core.sharding import ShardConfig, ShardedPlanServer, build_shard_server
from .tables_precompute import TABLE_FAMILIES, TableServer, default_grids

__all__ = [
    "QueryMix",
    "zipf_query_mix",
    "LoadReport",
    "run_closed_loop_scalar",
    "run_closed_loop_batched",
    "run_closed_loop_sharded",
    "run_open_loop",
    "plans_identical",
    "run_servebench",
    "run_shard_scaling",
]


# ----------------------------------------------------------------------
# Query-mix synthesis
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryMix:
    """A synthetic query stream: parallel ``(family, c, param)`` lists."""

    families: tuple[str, ...]
    cs: tuple[float, ...]
    param_values: tuple[float, ...]
    #: Number of *distinct* queries in the pool the stream draws from.
    distinct: int
    #: Zipf skew exponent used for the popularity weights.
    skew: float

    def __len__(self) -> int:
        return len(self.families)


def zipf_query_mix(
    n: int,
    distinct: int = 64,
    skew: float = 1.1,
    offgrid_fraction: float = 0.5,
    families: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> QueryMix:
    """A Zipf-skewed stream of ``n`` queries over a ``distinct``-point pool.

    The pool is drawn from each family's :func:`default_grids` interior —
    ``offgrid_fraction`` of the points log-uniform *between* grid knots
    (interpolation + polish path) and the rest snapped onto knots (exact
    cell corners).  Pool entry *r* (0-based, shuffled) is then drawn with
    probability proportional to ``(r + 1) ** -skew`` — the standard Zipf
    popularity model, so a handful of hot queries dominate the stream and
    exercise coalescing, while the tail keeps every table busy.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if distinct < 1:
        raise ValueError(f"distinct must be >= 1, got {distinct}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    fams = list(families) if families is not None else sorted(TABLE_FAMILIES)
    for fam in fams:
        if fam not in TABLE_FAMILIES:
            raise ValueError(
                f"unknown family {fam!r}; expected one of {sorted(TABLE_FAMILIES)}"
            )
    rng = np.random.default_rng(seed)

    pool: list[tuple[str, float, float]] = []
    for k in range(distinct):
        fam = fams[k % len(fams)]
        c_grid, v_grid = default_grids(fam)
        if rng.random() < offgrid_fraction:
            # Interior off-grid point, away from the exact bounds.
            c = float(np.exp(rng.uniform(np.log(c_grid[0] * 1.05),
                                         np.log(c_grid[-1] * 0.95))))
            v = float(np.exp(rng.uniform(np.log(v_grid[0] * 1.02),
                                         np.log(v_grid[-1] * 0.98))))
        else:
            c = float(rng.choice(c_grid[1:-1] if len(c_grid) > 2 else c_grid))
            v = float(rng.choice(v_grid[1:-1] if len(v_grid) > 2 else v_grid))
        pool.append((fam, c, v))
    rng.shuffle(pool)

    ranks = np.arange(1, len(pool) + 1, dtype=float)
    weights = ranks ** -float(skew)
    weights /= weights.sum()
    picks = rng.choice(len(pool), size=n, p=weights)

    chosen = [pool[int(i)] for i in picks]
    return QueryMix(
        families=tuple(q[0] for q in chosen),
        cs=tuple(q[1] for q in chosen),
        param_values=tuple(q[2] for q in chosen),
        distinct=len(pool),
        skew=float(skew),
    )


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------


@dataclass
class LoadReport:
    """One runner's outcome over a :class:`QueryMix`."""

    mode: str
    queries: int
    elapsed_seconds: float
    latencies: list[float] = field(repr=False, default_factory=list)
    plans: list[ServedPlan] = field(repr=False, default_factory=list)

    @property
    def throughput_qps(self) -> float:
        return self.queries / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def percentiles(self) -> dict[str, float]:
        """Nearest-rank p50/p95/p99 of the per-query latencies, seconds."""
        if not self.latencies:
            return {"p50": float("nan"), "p95": float("nan"), "p99": float("nan")}
        data = sorted(self.latencies)
        out = {}
        for q in (50, 95, 99):
            rank = max(1, int(np.ceil(q / 100 * len(data))))
            out[f"p{q}"] = float(data[rank - 1])
        return out

    def as_dict(self) -> dict[str, Any]:
        summary = {
            "mode": self.mode,
            "queries": self.queries,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_qps": self.throughput_qps,
        }
        summary.update(self.percentiles())
        return summary


def run_closed_loop_scalar(server: PlanServer, mix: QueryMix) -> LoadReport:
    """Serve the stream one scalar :meth:`PlanServer.serve` at a time."""
    plans: list[ServedPlan] = []
    latencies: list[float] = []
    start = time.perf_counter()
    for fam, c, v in zip(mix.families, mix.cs, mix.param_values):
        q_start = time.perf_counter()
        plans.append(server.serve(fam, c, v))
        latencies.append(time.perf_counter() - q_start)
    elapsed = time.perf_counter() - start
    return LoadReport("scalar", len(mix), elapsed, latencies, plans)


def run_closed_loop_batched(
    server: Union[PlanServer, ShardedPlanServer], mix: QueryMix, batch_size: int = 256
) -> LoadReport:
    """Serve the stream through ``server.serve_batch`` chunks."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    plans: list[ServedPlan] = []
    latencies: list[float] = []
    start = time.perf_counter()
    for lo in range(0, len(mix), batch_size):
        hi = min(lo + batch_size, len(mix))
        b_start = time.perf_counter()
        served = server.serve_batch(
            list(mix.families[lo:hi]), list(mix.cs[lo:hi]),
            list(mix.param_values[lo:hi]),
        )
        b_elapsed = time.perf_counter() - b_start
        plans.extend(served)
        # Closed-loop: every query in the chunk waited for the whole chunk.
        latencies.extend([b_elapsed] * (hi - lo))
    elapsed = time.perf_counter() - start
    return LoadReport("batched", len(mix), elapsed, latencies, plans)


def run_closed_loop_sharded(
    server: ShardedPlanServer, mix: QueryMix, batch_size: int = 256
) -> LoadReport:
    """Serve the stream through :meth:`ShardedPlanServer.serve_batch` chunks.

    :func:`run_closed_loop_batched` relabelled ``sharded[N]``, so the two
    reports are directly comparable (and their plan streams bit-comparable:
    a cold sharded server must reproduce a cold single-process server's
    output chunk for chunk).
    """
    report = run_closed_loop_batched(server, mix, batch_size)
    report.mode = f"sharded[{server.n_shards}]"
    return report


def run_open_loop(
    server: PlanServer,
    mix: QueryMix,
    max_batch: int = 256,
    max_delay_ms: float = 2.0,
    concurrency: int = 8,
) -> LoadReport:
    """Drive a :class:`BatchingPlanServer` from ``concurrency`` submitters.

    Each worker thread submits its slice of the stream and blocks on the
    futures, so in-flight duplicates coalesce and distinct queries pile up
    until a size-or-deadline flush — the production front-door shape.
    """
    front = BatchingPlanServer(server, max_batch=max_batch, max_delay_ms=max_delay_ms)
    results: list[Optional[ServedPlan]] = [None] * len(mix)
    latencies: list[float] = [0.0] * len(mix)

    def submit_range(indices: list[int]) -> None:
        for i in indices:
            q_start = time.perf_counter()
            fut = front.submit(mix.families[i], mix.cs[i], mix.param_values[i])
            results[i] = fut.result()
            latencies[i] = time.perf_counter() - q_start

    shards = [list(range(w, len(mix), concurrency)) for w in range(concurrency)]
    start = time.perf_counter()
    with front:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            for done in [pool.submit(submit_range, s) for s in shards if s]:
                done.result()
    elapsed = time.perf_counter() - start
    plans = [p for p in results if p is not None]
    report = LoadReport("open_loop", len(mix), elapsed, latencies, plans)
    return report


# ----------------------------------------------------------------------
# Differential check + the full benchmark
# ----------------------------------------------------------------------


def plans_identical(a: ServedPlan, b: ServedPlan) -> bool:
    """Bit-identical served plans: t0, periods, E, termination, and source."""
    return (
        a.t0 == b.t0
        and a.expected_work == b.expected_work
        and a.termination == b.termination
        and a.source == b.source
        and np.array_equal(a.schedule.periods, b.schedule.periods)
    )


def _build_server(
    cache_dir: Optional[Union[str, Path]],
    families: Sequence[str],
    grid_points: int,
    search_grid: int,
) -> PlanServer:
    """A :class:`PlanServer` over freshly warmed tables (+ shared cache)."""
    table_server = TableServer(cache_dir=cache_dir)
    grids = {fam: default_grids(fam, points=grid_points) for fam in families}
    table_server.warm(families=list(families), grids=grids, search_grid=search_grid)
    cache = table_server.cache
    if cache is None:
        cache = PlanCache()
        table_server.cache = cache
    return PlanServer(table_server=table_server, cache=cache)


def run_servebench(
    queries: int = 1024,
    batch_size: int = 256,
    distinct: int = 64,
    skew: float = 1.1,
    seed: int = 0,
    quick: bool = False,
    grid_points: int = 9,
    search_grid: int = 129,
    families: Optional[Sequence[str]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    open_loop: bool = True,
) -> dict[str, Any]:
    """The full servebench record: scalar vs batched vs open-loop.

    ``quick`` shrinks everything to the tier-1 smoke configuration (one
    family, tiny table, short stream) so it finishes in ~2 s; the default
    configuration is the acceptance benchmark (1024-query Zipf mix, batch
    256).  The record carries a ``parity_ok`` flag — batched plans checked
    bit-identical against the scalar loop — and the measured
    ``batch_speedup``; interpret throughput only when parity holds.
    """
    if quick:
        queries = min(queries, 256)
        batch_size = min(batch_size, 64)
        distinct = min(distinct, 16)
        grid_points = min(grid_points, 5)
        search_grid = min(search_grid, 33)
        families = list(families) if families is not None else ["uniform"]
        open_loop = False
    fams = list(families) if families is not None else sorted(TABLE_FAMILIES)

    build_start = time.perf_counter()
    # Independent servers per runner: tier stats, breakers, and cache warmth
    # must not leak between the baseline and the batched run.
    scalar_server = _build_server(cache_dir, fams, grid_points, search_grid)
    batched_server = _build_server(cache_dir, fams, grid_points, search_grid)
    warm_seconds = time.perf_counter() - build_start

    mix = zipf_query_mix(
        queries, distinct=distinct, skew=skew, families=fams, seed=seed
    )

    scalar = run_closed_loop_scalar(scalar_server, mix)
    batched = run_closed_loop_batched(batched_server, mix, batch_size=batch_size)

    mismatches = sum(
        not plans_identical(a, b) for a, b in zip(scalar.plans, batched.plans)
    )
    parity_ok = mismatches == 0 and len(scalar.plans) == len(batched.plans)
    speedup = (
        scalar.elapsed_seconds / batched.elapsed_seconds
        if batched.elapsed_seconds > 0
        else float("inf")
    )

    record: dict[str, Any] = {
        "config": {
            "queries": queries,
            "batch_size": batch_size,
            "distinct": mix.distinct,
            "skew": skew,
            "seed": seed,
            "quick": quick,
            "grid_points": grid_points,
            "search_grid": search_grid,
            "families": fams,
        },
        "warm_seconds": warm_seconds,
        "scalar": scalar.as_dict(),
        "batched": batched.as_dict(),
        "batch_speedup": speedup,
        "parity_ok": bool(parity_ok),
        "parity_mismatches": int(mismatches),
        "batched_stats": {
            "served": batched_server.served,
            "coalesced": batched_server.coalesced,
            "sources": {
                tier: batched_server.tier_stats[tier].hits
                for tier in batched_server.TIERS
            },
        },
    }
    if open_loop:
        open_server = _build_server(cache_dir, fams, grid_points, search_grid)
        open_report = run_open_loop(
            open_server, mix, max_batch=batch_size, max_delay_ms=2.0
        )
        record["open_loop"] = open_report.as_dict()
        record["open_loop"]["coalesced_inflight"] = open_server.coalesced
    return record


# ----------------------------------------------------------------------
# The sharded scaling study
# ----------------------------------------------------------------------


def _warm_table_dir(
    table_dir: Union[str, Path],
    families: Sequence[str],
    grid_points: int,
    search_grid: int,
) -> float:
    """Precompute the guideline tables into ``table_dir``; returns seconds.

    One warm pass shared by the reference server and every worker count:
    each process loads the same table files, so the bench must not re-warm
    per configuration.
    """
    start = time.perf_counter()
    table_server = TableServer(cache_dir=table_dir, cache=PlanCache())
    grids = {fam: default_grids(fam, points=grid_points) for fam in families}
    table_server.warm(families=list(families), grids=grids, search_grid=search_grid)
    return time.perf_counter() - start


def run_shard_scaling(
    queries: int = 1024,
    batch_size: int = 256,
    distinct: int = 64,
    skew: float = 1.1,
    seed: int = 0,
    quick: bool = False,
    grid_points: int = 9,
    search_grid: int = 129,
    families: Optional[Sequence[str]] = None,
    table_dir: Optional[Union[str, Path]] = None,
    workers: Sequence[int] = (1, 2, 4, 8),
    mp_method: Optional[str] = None,
    request_timeout: float = 120.0,
) -> dict[str, Any]:
    """The sharded scaling curve, bit-parity gated per worker count.

    Runs the acceptance mix through a **single-process** reference server
    (memory-only plan cache over the same table files — the exact stack
    every shard worker builds), then through a :class:`ShardedPlanServer`
    at each ``workers`` count, comparing the plan streams bit for bit.  The
    record's ``parity_ok`` is the AND over all counts; throughput numbers
    are meaningless when it is false.

    ``scaling_vs_one`` reports each count's aggregate qps relative to the
    sharded ``workers=1`` run (the honest baseline: it pays the same IPC
    tax), and ``cpu_count`` records how many cores the host could actually
    offer — on a single-core box the curve is flat by physics, which is why
    the CLI's scaling gate (``--min-scaling``) is opt-in while the parity
    gate is not.
    """
    if quick:
        queries = min(queries, 256)
        batch_size = min(batch_size, 64)
        distinct = min(distinct, 16)
        grid_points = min(grid_points, 5)
        search_grid = min(search_grid, 33)
        families = list(families) if families is not None else ["uniform"]
    fams = list(families) if families is not None else sorted(TABLE_FAMILIES)
    counts = sorted({int(w) for w in workers})
    if not counts or counts[0] < 1:
        raise ValueError(f"workers must be positive, got {list(workers)}")

    tmp: Optional[tempfile.TemporaryDirectory] = None
    if table_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-shardbench-")
        table_dir = tmp.name
    try:
        warm_seconds = _warm_table_dir(table_dir, fams, grid_points, search_grid)
        mix = zipf_query_mix(
            queries, distinct=distinct, skew=skew, families=fams, seed=seed
        )

        reference_server = build_shard_server(
            ShardConfig(shard=0, n_shards=1, table_dir=str(table_dir))
        )
        reference = run_closed_loop_batched(
            reference_server, mix, batch_size=batch_size
        )

        scaling: list[dict[str, Any]] = []
        qps_by_count: dict[int, float] = {}
        all_parity = True
        for n_workers in counts:
            with ShardedPlanServer(
                workers=n_workers,
                table_dir=table_dir,
                mp_method=mp_method,
                request_timeout=request_timeout,
            ) as sharded:
                report = run_closed_loop_sharded(sharded, mix, batch_size=batch_size)
                stats = sharded.stats_dict()
            mismatches = sum(
                not plans_identical(a, b)
                for a, b in zip(reference.plans, report.plans)
            )
            parity_ok = (
                mismatches == 0
                and len(report.plans) == len(reference.plans)
                and stats["fallback_lanes"] == 0
            )
            all_parity = all_parity and parity_ok
            qps_by_count[n_workers] = report.throughput_qps
            entry = report.as_dict()
            entry.update(
                workers=n_workers,
                parity_ok=bool(parity_ok),
                parity_mismatches=int(mismatches),
                fallback_lanes=stats["fallback_lanes"],
                restarts=stats["restarts"],
                worker_failures=stats["worker_failures"],
            )
            scaling.append(entry)

        base_qps = qps_by_count[counts[0]]
        scaling_vs_one = {
            str(n): (qps_by_count[n] / base_qps if base_qps > 0 else float("inf"))
            for n in counts
        }
        return {
            "config": {
                "queries": queries,
                "batch_size": batch_size,
                "distinct": mix.distinct,
                "skew": skew,
                "seed": seed,
                "quick": quick,
                "grid_points": grid_points,
                "search_grid": search_grid,
                "families": fams,
                "workers": counts,
                "mp_method": mp_method,
            },
            "cpu_count": os.cpu_count(),
            "warm_seconds": warm_seconds,
            "single_process": reference.as_dict(),
            "scaling": scaling,
            "scaling_vs_one": scaling_vs_one,
            "best_scaling": max(scaling_vs_one.values()),
            "parity_ok": bool(all_parity),
        }
    finally:
        if tmp is not None:
            tmp.cleanup()
