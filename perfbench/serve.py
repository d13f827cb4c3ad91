"""The serving workloads: ``serve-hot`` and ``serve-miss``.

Both drive one :class:`~repro.core.serving.BatchingPlanServer` (max batch
256, 2 ms deadline) over a :class:`~repro.core.serving.PlanServer` whose
tiers are table → cache → optimizer → guideline.  All load comes from the
calling thread; the front door's flusher is the only other thread.

* ``serve-hot`` — Zipf(1.1) over 256 in-table points, four families, half
  of them off-grid, offered at 100 queries/s.  The table tier (interpolate
  + batched polish) and coalescing do the work; the optimizer tier should
  stay idle.  At this rate the flusher is idle between small batches, so
  latency is the deadline plus one batch's service time; at 200-700
  queries/s a queue forms and the segments' medians swung 16-33% with the
  machine's speed, against 5% here.  The closed loop's full windows
  exercise the large batches and coalescing.
* ``serve-miss`` — Zipf(0.8) over 1,024 points just past the tables'
  parameter range, offered at 40 queries/s.  First sightings run the
  optimizer tier, which writes the plan cache; repeats read it through the
  cache tier; the table tier only misses.  Optimizer runs are served one
  after another, so the rate keeps that tier about a fifth busy: a loaded
  queue turns small changes in machine speed into large tail changes.

Each run sets up (table warm + server build), then cuts the run into
``SEGMENTS`` stretches, each of them

1. a set-up again (but the first), so that set-ups span the run
   (``setup_s`` is the fastest),
2. an open-loop segment at the workload's fixed rate, each query timed
   from its *scheduled* send time to its future resolving (``p50_ms`` is
   the lowest segment median; ``p99_ms`` the lowest segment tail: the
   99th percentile, with ten samples beyond it, at serve-hot's rate, and
   the highest percentile that has ten beyond it at serve-miss's), and
3. closed-loop passes over a fixed stream with a fixed in-flight window,
   until the stretch's share of ``--seconds`` is used (``run_s`` is the
   lowest stretch median of the pass times, ``sat_qps`` the queries of a
   pass over it),

each pass on a fresh server, so every timed pass starts from a cold plan
cache.  :func:`~perfbench.core.least` says why the lowest stretch.
After each, untimed, every served plan must be identical to a scalar
:meth:`PlanServer.serve` reference built at set-up on a separate server.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.analysis import tables_precompute
from repro.analysis.loadgen import plans_identical
from repro.analysis.tables_precompute import (
    TABLE_FAMILIES,
    PlanAnswer,
    TableServer,
    default_grids,
)
from repro.core import serving
from repro.core.plancache import PlanCache
from repro.core.serving import BatchingPlanServer, PlanServer

from .core import SEGMENTS, Tracer, chunks, frac, least, least_tail, median, patched, tail

FAMILIES = tuple(sorted(TABLE_FAMILIES))
TABLE_POINTS = 5  #: table knots per axis (log-spaced over the default grid)
SEARCH_GRID = 129  #: t0 grid of each table point's optimizer run
MAX_BATCH = 256
MAX_DELAY_MS = 2.0
WINDOW = 64  #: closed-loop in-flight queries, submitted well inside one deadline
CACHE_SIZE = 8192  #: holds every plan a run writes, so nothing is evicted
RESULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Profile:
    distinct: int
    skew: float
    rate_qps: float  #: open-loop offered rate
    closed_queries: int  #: queries in one closed-loop pass
    in_table: bool
    #: Share of ``--seconds`` given to the open loop; the closed loop has
    #: the rest.  serve-miss's passes are long (optimizer runs), so it
    #: gives the closed loop more time to keep several passes per stretch.
    open_share: float


PROFILES = {
    "serve-hot": Profile(256, 1.1, 100.0, 512, True, 0.7),
    "serve-miss": Profile(1024, 0.8, 40.0, 128, False, 0.5),
}

Query = tuple[str, float, float]


#: Fixes which stratum of the parameter ranges each popularity rank takes.
#: The run's seed then places the point inside its stratum, so pools drawn
#: from different seeds differ in their points but not in which kind of
#: point is hot — the cost of a pool does not hinge on the seed.
LAYOUT_SEED = 20240


def _at(lo: float, hi: float, u: float) -> float:
    """The point a share ``u`` of the way from ``lo`` to ``hi`` on a log scale."""
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def query_pool(profile: Profile, rng: np.random.Generator) -> list[Query]:
    """``profile.distinct`` points, ordered by popularity rank.

    Ranks cycle through the families.  A family's ``j``-th point takes a
    fixed stratum of the ``c`` range and of the swept-parameter range (a
    Latin square over the family's points) and the seed places it inside.
    In-table pools alternate grid knots (the nearest interior knot) and
    off-grid interior points; off-table pools draw the swept parameter
    beyond the table's upper bound, so the table tier can only miss.
    """
    layout = np.random.default_rng(LAYOUT_SEED)
    per_family = profile.distinct // len(FAMILIES)
    pool: list[Query] = [("", 0.0, 0.0)] * (per_family * len(FAMILIES))
    for f, family in enumerate(FAMILIES):
        c_grid, v_grid = default_grids(family)
        c_strata, v_strata = layout.permutation(per_family), layout.permutation(per_family)
        for j in range(per_family):
            u_c = (c_strata[j] + rng.random()) / per_family
            u_v = (v_strata[j] + rng.random()) / per_family
            if not profile.in_table:
                # The top third of the c range and a thin band past the
                # table keep optimizer runs short and alike, so latency
                # quantiles hardly depend on which tail points the seed draws.
                c = _at(_at(c_grid[0], c_grid[-1], 2 / 3), c_grid[-1] * 0.95, u_c)
                v = _at(v_grid[-1] * 1.1, v_grid[-1] * 1.2, u_v)
            else:
                c = _at(c_grid[0] * 1.05, c_grid[-1] * 0.95, u_c)
                v = _at(v_grid[0] * 1.02, v_grid[-1] * 0.98, u_v)
                if j % 2 == 0:
                    c = float(min(c_grid[1:-1], key=lambda k: abs(math.log(k / c))))
                    v = float(min(v_grid[1:-1], key=lambda k: abs(math.log(k / v))))
            pool[j * len(FAMILIES) + f] = (family, c, v)
    return pool


def zipf_stream(pool: list[Query], skew: float, n: int,
                rng: np.random.Generator) -> list[Query]:
    """``n`` draws where pool entry ``r`` has weight ``(r + 1) ** -skew``.

    Stratified inverse-CDF sampling: draw ``i`` inverts the midpoint of
    ``[i / n, (i + 1) / n)``, then ``rng`` shuffles the order.  Each entry
    appears its expected number of times, give or take one, and streams
    from different seeds hold the same ranks: the seed moves the points
    (see :func:`query_pool`) and the order, not the repetition or the mix
    of costly and cheap points.  A short stream over a long pool (a
    closed-loop pass of serve-miss) otherwise took a different subset of
    ranks per seed, and its pass time swung with that subset.
    """
    weights = np.arange(1, len(pool) + 1, dtype=float) ** -skew
    cdf = np.cumsum(weights / weights.sum())
    u = (np.arange(n) + 0.5) / n
    picks = np.minimum(np.searchsorted(cdf, u, side="right"), len(pool) - 1)
    return [pool[i] for i in rng.permutation(picks)]


def key_of(q: Query) -> tuple[str, str, str]:
    return (q[0], float(q[1]).hex(), float(q[2]).hex())


# ----------------------------------------------------------------------
# Servers, and the proxies the traced run hands to PlanServer
# ----------------------------------------------------------------------


def warm_tables() -> dict:
    """Precompute every family's guideline table (in memory only)."""
    grids = {
        fam: tuple(np.geomspace(g[0], g[-1], TABLE_POINTS) for g in default_grids(fam))
        for fam in FAMILIES
    }
    return TableServer().warm(families=list(FAMILIES), grids=grids,
                              search_grid=SEARCH_GRID)


def plan_server(tables: dict, tracer: Optional[Tracer] = None) -> PlanServer:
    """A server over ``tables`` with a cold plan cache of its own."""
    table_server = TableServer()
    for table in tables.values():
        table_server.add_table(table)
    cache = PlanCache(maxsize=CACHE_SIZE)
    if tracer is None:
        return PlanServer(table_server=table_server, cache=cache)
    return PlanServer(table_server=TableProxy(table_server, tracer),
                      cache=CacheProxy(cache, tracer))


class TableProxy:
    """Times the table tier's batched entry point; delegates the rest."""

    def __init__(self, inner: TableServer, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def serve_from_table_batch(self, families, cs, param_values, polish=True):
        with self._tracer.span("table.serve", lanes=len(families)) as attrs:
            out = self._inner.serve_from_table_batch(families, cs, param_values, polish)
            attrs["answered"] = sum(isinstance(r, PlanAnswer) for r in out)
            return out

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class CacheProxy:
    """Times plan-cache reads and writes; the write's compute callback (the
    t0 search) is its own span, so cache time excludes it."""

    def __init__(self, inner: PlanCache, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def peek(self, key, from_payload=None):
        with self._tracer.span("cache.peek") as attrs:
            value = self._inner.peek(key, from_payload=from_payload)
            attrs["hit"] = value is not None
            return value

    def get_or_compute(self, key, compute, to_payload=None, from_payload=None):
        def timed_compute():
            with self._tracer.span("optimizer.search"):
                return compute()

        with self._tracer.span("cache.get_or_compute"):
            return self._inner.get_or_compute(key, timed_compute, to_payload, from_payload)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TracedFront(BatchingPlanServer):
    """The front door with one span per dispatched batch.

    Records when each batch starts serving and which futures it carries,
    so queue wait (due → batch start) is exact per query.  It overrides the
    private ``_dispatch`` hook, the one place where both are known.
    """

    def __init__(self, server: PlanServer, tracer: Tracer, **kwargs: Any) -> None:
        super().__init__(server, **kwargs)
        self.tracer = tracer
        #: ``(start, futures, span attrs)`` per batch, until :func:`settle`.
        self.dispatched: list[tuple[float, list, dict]] = []

    def _dispatch(self, batch):
        if not batch:
            return 0
        futures = [fut for flight in batch for fut in flight.futures]
        with self.tracer.span("serve.batch", lanes=len(batch)) as attrs:
            self.dispatched.append((time.perf_counter(), futures, attrs))
            return super()._dispatch(batch)


def _front(server: PlanServer, tracer: Optional[Tracer]) -> BatchingPlanServer:
    if tracer is None:
        return BatchingPlanServer(server, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS)
    return TracedFront(server, tracer, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS)


# ----------------------------------------------------------------------
# Load generators (calling thread only)
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """One pass of a stream through a front door."""

    front: BatchingPlanServer
    server: PlanServer
    stream: list[Query]
    futures: list
    due: np.ndarray  #: when each query was meant to be sent
    sent: np.ndarray  #: when its submit call started
    submit_s: np.ndarray  #: how long the submit call took
    done: np.ndarray  #: when its future resolved
    wall_s: float  #: first due → last resolved
    failed: int = 0  #: set by :func:`settle`


def _stamp(done: np.ndarray, i: int, _fut: Any) -> None:
    done[i] = time.perf_counter()


def _finish(front: BatchingPlanServer, futures: list) -> None:
    front.close()
    for fut in futures:
        try:
            fut.exception(timeout=RESULT_TIMEOUT_S)
        except FutureTimeout:
            break


def open_loop(server: PlanServer, stream: list[Query], rate: float,
              tracer: Optional[Tracer]) -> Pass:
    """Send query ``i`` at ``start + i / rate`` whatever the backlog."""
    n = len(stream)
    due = np.empty(n)
    sent = np.empty(n)
    submit_s = np.empty(n)
    done = np.full(n, np.nan)
    futures = []
    front = _front(server, tracer)
    start = time.perf_counter() + 0.005
    try:
        for i, (family, c, v) in enumerate(stream):
            due[i] = start + i / rate
            now = time.perf_counter()
            if now < due[i]:
                time.sleep(due[i] - now)
                now = time.perf_counter()
            sent[i] = now
            fut = front.submit(family, c, v)
            submit_s[i] = time.perf_counter() - now
            fut.add_done_callback(partial(_stamp, done, i))
            futures.append(fut)
    finally:
        _finish(front, futures)
    wall = float(np.nanmax(done) - start) if n else 0.0
    return Pass(front, server, stream, futures, due, sent, submit_s, done, wall)


def closed_loop(server: PlanServer, stream: list[Query], window: int,
                tracer: Optional[Tracer]) -> Pass:
    """Keep ``window`` queries in flight until the stream is sent."""
    n = len(stream)
    sent = np.empty(n)
    submit_s = np.empty(n)
    done = np.full(n, np.nan)
    futures = []
    slots = threading.Semaphore(window)
    front = _front(server, tracer)

    def release(i: int, _fut: Any) -> None:
        done[i] = time.perf_counter()
        slots.release()

    start = time.perf_counter()
    try:
        for i, (family, c, v) in enumerate(stream):
            slots.acquire()
            now = time.perf_counter()
            sent[i] = now
            fut = front.submit(family, c, v)
            submit_s[i] = time.perf_counter() - now
            fut.add_done_callback(partial(release, i))
            futures.append(fut)
    finally:
        _finish(front, futures)
    wall = float(np.nanmax(done) - start) if n else 0.0
    return Pass(front, server, stream, futures, sent.copy(), sent, submit_s, done, wall)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def reference_plans(tables: dict, queries: list[Query], in_table: bool) -> dict:
    """Scalar ``PlanServer.serve`` answers per distinct query and source.

    Off-table queries are served twice: the first answer comes from the
    optimizer tier, the repeat from the cache tier it warmed.
    """
    server = plan_server(tables)
    refs: dict = {}
    for q in queries:
        key = key_of(q)
        if key in refs:
            continue
        refs[key] = {}
        for _ in range(1 if in_table else 2):
            try:
                plan = server.serve(*q)
            except Exception:  # a query no tier can answer has no reference
                break
            refs[key][plan.source] = plan
    return refs


def failures(p: Pass, refs: dict) -> int:
    """Futures that raised, never resolved, or differ from the reference."""
    bad = 0
    for q, fut in zip(p.stream, p.futures):
        if not fut.done() or fut.exception(timeout=0) is not None:
            bad += 1
            continue
        plan = fut.result()
        ref = refs.get(key_of(q), {}).get(plan.source)
        if ref is None or not plans_identical(plan, ref):
            bad += 1
    return bad + len(p.stream) - len(p.futures)


def settle(p: Pass, refs: dict, qid0: int) -> None:
    """Check a finished pass, keep its counts, and drop the plans it served.

    Served plans are not kept across passes: a heap that only grows would
    make the interpreter's cyclic collector slower in every later pass.
    A traced pass first gets its per-query spans: query ``qid0 + i`` has a
    ``query`` span (due → resolved) and a ``front.queue_wait`` span (due →
    its batch starts), and each ``serve.batch`` span lists its query ids.
    """
    p.failed = failures(p, refs)
    if isinstance(p.front, TracedFront):
        tracer = p.front.tracer
        qid = {id(f): qid0 + i for i, f in enumerate(p.futures)}
        for start, futures, attrs in p.front.dispatched:
            attrs["qids"] = [qid[id(f)] for f in futures]
            for q in attrs["qids"]:
                tracer.record("front.queue_wait", p.due[q - qid0], start, qid=q)
        for i in range(len(p.futures)):
            tracer.record("query", p.due[i], p.done[i], qid=qid0 + i)
        p.front.dispatched.clear()
    p.futures = []


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> dict:
    profile = PROFILES[workload]
    setups = []

    def set_up() -> dict:
        start = time.perf_counter()
        tables = warm_tables()
        plan_server(tables)
        setups.append(time.perf_counter() - start)
        return tables

    tables = set_up()

    rng = np.random.default_rng([seed, 11 if profile.in_table else 12])
    pool = query_pool(profile, rng)
    n_open = max(1, int(profile.rate_qps * profile.open_share * seconds))
    open_stream = zipf_stream(pool, profile.skew, n_open, rng)
    closed_stream = zipf_stream(pool, profile.skew, profile.closed_queries, rng)
    refs = reference_plans(tables, open_stream + closed_stream, profile.in_table)

    # Warm interpreter and NumPy paths on a throwaway server.
    closed_loop(plan_server(tables), closed_stream[:64], WINDOW, None)

    baseline_s = None
    if tracer is not None:
        baseline_s = median([closed_loop(plan_server(tables), closed_stream, WINDOW,
                                         None).wall_s for _ in range(3)])
    targets = [
        (tables_precompute, "generate_schedules_hetero", "hetero.generate",
         lambda a, k: {"lanes": len(a[3])}),
        (serving, "optimize_t0_via_recurrence", "optimizer.tier", None),
    ] if tracer is not None else []
    # Set-up objects, the reference plans above all, stay alive for the
    # whole run; keep the cyclic collector from walking them in timed code.
    gc.collect()
    gc.freeze()
    closed_share = (1 - profile.open_share) * seconds / SEGMENTS
    opened: list[Pass] = []
    closed: list[list[Pass]] = []  #: per stretch
    attempted = 0
    with patched(tracer, targets):
        for k, segment in enumerate(chunks(open_stream, SEGMENTS)):
            if k and tracer is None:
                set_up()
            opened.append(open_loop(plan_server(tables, tracer), segment,
                                    profile.rate_qps, tracer))
            settle(opened[-1], refs, qid0=attempted)
            attempted += len(segment)
            closed.append([])
            segment_end = time.perf_counter() + closed_share
            while True:
                closed[-1].append(closed_loop(plan_server(tables, tracer), closed_stream,
                                              WINDOW, tracer))
                settle(closed[-1][-1], refs, qid0=attempted)
                attempted += len(closed_stream)
                if tracer is not None or time.perf_counter() >= segment_end:
                    break

    closed_passes = [p for group in closed for p in group]
    passes = opened + closed_passes
    failed = sum(p.failed for p in passes)
    latencies = [p.done - p.due for p in opened]
    latencies = [d[np.isfinite(d)] for d in latencies]
    p99, p99_is = least_tail(latencies, 99)
    run_s = least([[p.wall_s for p in group] for group in closed], median)
    out = {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": min(setups),
            "run_s": run_s,
            "p50_ms": least(latencies, median) * 1e3,
            "p99_ms": p99 * 1e3,
            "sat_qps": len(closed_stream) / run_s,
        },
        "notes": {
            "open_loop_rate_qps": profile.rate_qps,
            "latency_samples": sum(d.size for d in latencies),
            "p99_ms_is": p99_is,
            "segment_p50_ms": [round(median(d) * 1e3, 2) for d in latencies],
            "segment_run_s": [round(median([p.wall_s for p in g]), 4) for g in closed],
            "closed_passes": len(closed_passes),
            "closed_queries_per_pass": profile.closed_queries,
            "window": WINDOW,
            "setups": len(setups),
        },
    }
    if tracer is not None:
        out["layers"] = _layers(tracer, opened, closed_passes, baseline_s, run_s)
    return out


def _layers(tracer: Tracer, opened: list[Pass], closed: list[Pass], baseline_s: float,
            run_s: float) -> dict:
    passes = opened + closed
    waits = [s.duration * 1e3 for s in tracer.named("front.queue_wait")]
    batches = sum(p.front.batches for p in passes)
    submitted = sum(p.front.submitted for p in passes)
    coalesced = sum(p.front.coalesced for p in passes)
    hits = {t: sum(p.server.tier_stats[t].hits for p in passes) for t in PlanServer.TIERS}
    served = sum(hits.values())
    table = tracer.named("table.serve")
    table_lanes = sum(s.attrs["answered"] for s in table)
    peeks = tracer.named("cache.peek")
    searches = tracer.named("optimizer.search")
    late_ms = np.concatenate([p.sent - p.due for p in opened]) * 1e3
    submit_us = np.concatenate([p.submit_s for p in passes]) * 1e6
    return {
        "front.submit_us": float(np.mean(submit_us)),
        "front.batches": batches,
        "front.lanes_per_batch": float(np.mean([s.attrs["lanes"] for s in
                                                tracer.named("serve.batch")])),
        "front.coalesced_frac": frac(coalesced, submitted),
        "front.queue_wait_p50_ms": median(waits),
        "front.queue_wait_p99_ms": tail(waits, 99)[0],
        "serve.self_s": tracer.self_total("serve.batch"),
        "tiers.table_frac": frac(hits["table"], served),
        "tiers.cache_frac": frac(hits["cache"], served),
        "tiers.optimizer_frac": frac(hits["optimizer"], served),
        "tiers.guideline_frac": frac(hits["guideline"], served),
        "tiers.errors": sum(p.server.tier_stats[t].errors for p in passes
                            for t in PlanServer.TIERS),
        "breaker.opens": sum(b.opens for p in passes for b in p.server.breakers.values()),
        "table.busy_s": tracer.busy("table.serve"),
        "table.self_s": tracer.self_total("table.serve"),
        "table.calls": len(table),
        "table.lanes": table_lanes,
        "table.us_per_lane": frac(tracer.busy("table.serve") * 1e6, table_lanes),
        "hetero.busy_s": tracer.busy("hetero.generate"),
        "hetero.lanes": sum(s.attrs["lanes"] for s in tracer.named("hetero.generate")),
        "optimizer.busy_s": tracer.busy("optimizer.search"),
        "optimizer.calls": len(searches),
        "optimizer.ms_per_call": frac(tracer.busy("optimizer.search") * 1e3, len(searches)),
        "cache.busy_s": tracer.self_total("cache.peek") + tracer.self_total("cache.get_or_compute"),
        "cache.hit_rate": frac(sum(s.attrs["hit"] for s in peeks), len(peeks)),
        "cache.puts": len(searches),
        "loadgen.late_p99_ms": tail(late_ms, 99)[0],
        "trace.overhead_frac": run_s / baseline_s - 1.0,
    }
