"""Numeric ground-truth optimization of cycle-stealing schedules.

The paper derives *necessary* conditions for optimality and brackets for
``t_0``; it does not claim sufficiency ("our results expose only necessary
dependencies", Section 6).  To evaluate how close the guideline schedules come
to true optimality — the library's referee for every "nearly optimal" claim —
this module maximizes the expected work

    E(S; p) = sum_i (t_i - c) p(T_i),        T_i = t_0 + ... + t_i

directly, two ways:

* :func:`optimize_fixed_m` — a smooth NLP over the ``m`` period lengths with
  the analytic gradient ``∂E/∂t_j = p(T_j) + sum_{i>=j} (t_i - c) p'(T_i)``
  (note: setting this to zero for all ``j`` is *exactly* Theorem 3.1's system
  (3.1) — the NLP's KKT conditions re-derive the paper's main theorem).
  Periods are constrained to ``t_i >= c`` (lossless by Proposition 2.1, and it
  keeps the ``⊖`` out of the objective) and ``sum t_i <= L`` for finite
  lifespans.

* :func:`optimize_schedule` — sweeps the period count ``m`` (over the range
  Corollary 5.3 licenses for concave ``p``, or a geometric probe otherwise),
  multi-starting each NLP from the guideline schedule, a uniform split, and a
  decrement-``c`` ramp, returning the best.

* :func:`optimize_t0_via_recurrence` — the paper's intended usage: restrict
  the search to the 1-parameter family generated by the Corollary 3.1
  recurrence and optimize ``t_0`` inside (or slightly beyond) the Theorem
  3.2/3.3 bracket.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from ..exceptions import InvalidScheduleError
from ..types import Bracket, FloatArray
from .batch_recurrence import generate_schedules_batch
from .life_functions import LifeFunction
from .plancache import PlanCache, plan_key
from .recurrence import RecurrenceOutcome, generate_schedule
from .schedule import Schedule
from .t0_bounds import max_periods_bound, t0_bracket

__all__ = [
    "OptimizationResult",
    "expected_work_gradient",
    "optimize_fixed_m",
    "optimize_schedule",
    "optimize_t0_via_recurrence",
]


@dataclass(frozen=True)
class OptimizationResult:
    """A numerically optimized schedule and its provenance."""

    schedule: Schedule
    expected_work: float
    method: str
    converged: bool

    @property
    def t0(self) -> float:
        return float(self.schedule.periods[0])

    @property
    def num_periods(self) -> int:
        return self.schedule.num_periods


def expected_work_gradient(periods: FloatArray, p: LifeFunction, c: float) -> FloatArray:
    """``∂E/∂t_j = p(T_j) + sum_{i >= j} (t_i - c) p'(T_i)`` — Theorem 3.1's LHS/RHS gap.

    Vectorized with a reversed cumulative sum; ``O(m)`` life-function
    evaluations total.
    """
    boundaries = np.cumsum(periods)
    p_vals = np.asarray(p(boundaries), dtype=float)
    dp_vals = np.asarray(p.derivative(boundaries), dtype=float)
    weighted = (periods - c) * dp_vals
    # suffix_sums[j] = sum_{i >= j} weighted[i]
    suffix_sums = np.cumsum(weighted[::-1])[::-1]
    return p_vals + suffix_sums


def _expected_work_raw(periods: FloatArray, p: LifeFunction, c: float) -> float:
    """E with ordinary (not positive) subtraction — valid for periods >= c."""
    boundaries = np.cumsum(periods)
    return float(np.dot(periods - c, np.asarray(p(boundaries), dtype=float)))


def optimize_fixed_m(
    p: LifeFunction,
    c: float,
    m: int,
    t_init: Optional[Sequence[float]] = None,
    horizon: Optional[float] = None,
) -> OptimizationResult:
    """Maximize ``E`` over exactly ``m`` periods with an SLSQP NLP.

    Periods are bounded to ``[c, horizon]``; for finite-lifespan functions a
    ``sum t_i <= L`` constraint is added.  Pinned-at-``c`` trailing periods
    contribute zero work and are stripped from the returned schedule.
    """
    if m < 1:
        raise ValueError(f"period count must be >= 1, got {m}")
    lifespan = p.lifespan
    if horizon is None:
        horizon = lifespan if math.isfinite(lifespan) else float(p.inverse(1e-12))

    if t_init is None:
        x0 = np.full(m, max(horizon / (m + 1), c * 1.5))
    else:
        x0 = np.asarray(t_init, dtype=float).copy()
        if x0.size != m:
            raise ValueError(f"t_init has {x0.size} entries, expected {m}")
    x0 = np.clip(x0, c + 1e-12, horizon)
    if math.isfinite(lifespan) and x0.sum() > lifespan:
        x0 *= lifespan / x0.sum() * (1 - 1e-9)
        x0 = np.maximum(x0, c + 1e-15)

    def neg_objective(x: FloatArray) -> float:
        return -_expected_work_raw(x, p, c)

    def neg_gradient(x: FloatArray) -> FloatArray:
        return -expected_work_gradient(x, p, c)

    constraints = []
    if math.isfinite(lifespan):
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda x: lifespan - np.sum(x),
                "jac": lambda x: -np.ones_like(x),
            }
        )
    res = minimize(
        neg_objective,
        x0,
        jac=neg_gradient,
        bounds=[(c, horizon)] * m,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    x = np.maximum(np.asarray(res.x, dtype=float), c)
    # Strip zero-work periods pinned at the lower bound (keep at least one).
    keep = x > c + 1e-10
    if not np.any(keep):
        keep[int(np.argmax(x))] = True
    schedule = Schedule(x[keep])
    return OptimizationResult(
        schedule,
        schedule.expected_work(p, c),
        method=f"SLSQP(m={m})",
        converged=bool(res.success),
    )


def _candidate_period_counts(p: LifeFunction, c: float, m_max: Optional[int]) -> list[int]:
    lifespan = p.lifespan
    if m_max is None:
        if math.isfinite(lifespan) and p.shape.is_concave:
            m_max = max_periods_bound(lifespan, c)
        elif math.isfinite(lifespan):
            # Non-concave finite lifespan: at most ~L/c productive periods fit
            # in [0, L].  Clamp the probe to [2, 256] so a small L/c ratio
            # (L barely above c) still sweeps m ∈ {1, 2} rather than
            # collapsing to a single count.
            m_max = int(min(max(lifespan / max(c, 1e-9), 2.0), 256.0))
        else:
            # Unbounded support: probe geometrically; equal-period optima
            # concentrate the mass early, so modest m suffices once the tail
            # survival is negligible at the horizon.
            m_max = 64
    m_max = max(1, int(m_max))
    if m_max <= 24:
        return list(range(1, m_max + 1))
    # Dense for small counts and near the Corollary 5.3 center, a deduped and
    # clamped geometric probe elsewhere (always reaching m_max itself).
    counts = set(range(1, 9))
    probe = 8.0
    while probe < m_max:
        probe *= 1.4
        counts.add(min(m_max, int(round(probe))))
    counts.add(m_max)
    center = int(math.sqrt(2 * lifespan / c)) if math.isfinite(lifespan) else m_max // 2
    counts.update(range(max(1, center - 4), min(m_max, center + 4) + 1))
    return sorted(x for x in counts if 1 <= x <= m_max)


#: Memoized guideline starts: life function -> LRU {overhead c -> periods or
#: None}.  optimize_schedule re-runs the (now batched, but still non-free) t0
#: search once per (p, c) instead of once per call; keyed weakly so cached
#: entries die with their life function.  The inner map is bounded (oldest-c
#: eviction) and all bookkeeping runs under a lock, consistent with the
#: PlanCache LRU — a long-lived service sweeping many c values against one
#: life function must not grow this without bound.
_guideline_start_cache: "weakref.WeakKeyDictionary[LifeFunction, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)
_guideline_start_lock = threading.Lock()
_GUIDELINE_START_MAX_PER_LIFE = 16


def _guideline_start(
    p: LifeFunction, c: float, cache: Optional[PlanCache] = None
) -> Optional[FloatArray]:
    """The recurrence-family schedule used to seed the NLP multi-starts."""
    with _guideline_start_lock:
        try:
            per_c = _guideline_start_cache.setdefault(p, OrderedDict())
        except TypeError:  # non-weakref-able life function: skip memoization
            per_c = OrderedDict()
        if c in per_c:
            per_c.move_to_end(c)
            return per_c[c]
    # Compute outside the lock: the t0 search is the expensive part, and a
    # duplicated concurrent computation is idempotent.
    try:
        _, outcome, _ = optimize_t0_via_recurrence(p, c, grid=33, cache=cache)
        periods: Optional[FloatArray] = outcome.schedule.periods
    except Exception:
        periods = None
    with _guideline_start_lock:
        per_c[c] = periods
        per_c.move_to_end(c)
        while len(per_c) > _GUIDELINE_START_MAX_PER_LIFE:
            per_c.popitem(last=False)
    return periods


def _plan_key_for(
    cache: PlanCache, op: str, p: LifeFunction, c: float, **extras
) -> Optional[str]:
    """A plan-cache key for ``(op, p, c, extras)``; None when uncacheable."""
    fp = cache.fingerprint_of(p)
    return None if fp is None else plan_key(op, fp, c, **extras)


def _score_starts(starts: Sequence[FloatArray], p: LifeFunction, c: float) -> FloatArray:
    """Raw expected work of each start vector, in one vectorized evaluation."""
    block = np.vstack(starts)
    survival = np.asarray(p(np.cumsum(block, axis=1)), dtype=float)
    return np.sum((block - c) * survival, axis=1)


def optimize_schedule(
    p: LifeFunction,
    c: float,
    m_max: Optional[int] = None,
    include_guideline_start: bool = True,
    cache: Optional[PlanCache] = None,
) -> OptimizationResult:
    """Ground-truth maximization of E: sweep period counts, multi-start NLPs.

    For concave finite-lifespan ``p``, Corollary 5.3 caps the sweep.  Starts
    per ``m``: uniform split, decrement-``c`` ramp, and (optionally) the
    guideline schedule padded/truncated to ``m`` periods.  The guideline
    start is memoized per ``(p, c)``; per count the starts are deduplicated
    and scored in one batched E evaluation, and the NLPs launch best-first.

    ``cache`` (a :class:`~repro.core.plancache.PlanCache`) memoizes the whole
    result keyed on ``p.fingerprint()`` and the search parameters: a memory
    hit returns the original (bit-identical) :class:`OptimizationResult`, a
    disk hit an exact float round-trip.  Life functions without a stable
    fingerprint bypass the cache.
    """
    if cache is not None:
        key = _plan_key_for(
            cache, "optimize_schedule", p, c,
            m_max=m_max, guideline_start=include_guideline_start,
        )
        from .. import io as _io  # deferred: repro.io imports this module

        return cache.get_or_compute(
            key,
            lambda: _optimize_schedule_impl(p, c, m_max, include_guideline_start, cache),
            to_payload=_io.optimization_result_to_dict,
            from_payload=_io.optimization_result_from_dict,
        )
    return _optimize_schedule_impl(p, c, m_max, include_guideline_start, None)


def _optimize_schedule_impl(
    p: LifeFunction,
    c: float,
    m_max: Optional[int],
    include_guideline_start: bool,
    cache: Optional[PlanCache],
) -> OptimizationResult:
    lifespan = p.lifespan
    horizon = lifespan if math.isfinite(lifespan) else float(p.inverse(1e-12))
    counts = _candidate_period_counts(p, c, m_max)

    guideline_periods: Optional[FloatArray] = None
    if include_guideline_start:
        guideline_periods = _guideline_start(p, c, cache=cache)

    best: Optional[OptimizationResult] = None
    for m in counts:
        starts: list[FloatArray] = []
        starts.append(np.full(m, min(horizon / (m + 1e-9), horizon) * 0.9 + c))
        span = min(horizon, m * (c * 2 + horizon / (m + 1)))
        t0_ramp = span / m + (m - 1) * c / 2.0
        ramp = t0_ramp - c * np.arange(m)
        if np.all(ramp > c):
            starts.append(ramp)
        if guideline_periods is not None:
            g = guideline_periods
            if g.size >= m:
                starts.append(g[:m].copy())
            else:
                starts.append(np.concatenate([g, np.full(m - g.size, c * 1.5)]))
        # Dedupe coinciding starts (ramp == uniform for m = 1, etc.), then
        # score the survivors in one batched evaluation and launch the NLPs
        # from the most promising start first.
        unique: list[FloatArray] = []
        for x0 in starts:
            if not any(np.allclose(x0, u, rtol=1e-12, atol=1e-12) for u in unique):
                unique.append(x0)
        order = np.argsort(-_score_starts(unique, p, c))
        for j in order:
            try:
                result = optimize_fixed_m(p, c, m, t_init=unique[j], horizon=horizon)
            except Exception:
                continue
            if best is None or result.expected_work > best.expected_work:
                best = result
    if best is None:
        raise RuntimeError("schedule optimization produced no candidates")
    return OptimizationResult(
        best.schedule, best.expected_work, method="sweep+" + best.method, converged=best.converged
    )


def optimize_t0_via_recurrence(
    p: LifeFunction,
    c: float,
    bracket: Optional[Bracket] = None,
    grid: int = 129,
    widen: float = 1.5,
    cache: Optional[PlanCache] = None,
) -> tuple[float, RecurrenceOutcome, float]:
    """Optimize ``t_0`` over the recurrence-generated family (the paper's recipe).

    Evaluates ``E(t_0)`` on a grid over the (optionally widened) Theorem
    3.2/3.3 bracket, then refines around the best grid point with a bounded
    scalar minimizer.  ``E(t_0)`` is continuous but can have kinks where the
    generated period count changes, hence grid-first.

    The grid runs through one lane-based recurrence
    (:func:`~repro.core.batch_recurrence.generate_schedules_batch`), so the
    whole grid costs O(max periods) vector steps; the refinement walks the
    scalar recurrence (:func:`~repro.core.recurrence.generate_schedule`, the
    oracle the batch lanes are tested against).  Every evaluated ``t_0`` is
    cached, so the winner is never recomputed.

    ``cache`` memoizes the full ``(t0, outcome, E)`` result keyed on
    ``(p.fingerprint(), c, bracket, grid, widen)`` — see
    :mod:`repro.core.plancache`.

    Returns ``(t0, recurrence outcome, expected work)``.
    """
    if cache is not None:
        fingerprint = cache.fingerprint_of(p)
        key = None if fingerprint is None else _t0_search_key(
            fingerprint, c, bracket, grid, widen
        )
        from .. import io as _io  # deferred: repro.io imports this module

        return cache.get_or_compute(
            key,
            lambda: optimize_t0_via_recurrence(p, c, bracket, grid, widen),
            to_payload=lambda res: _io.t0_search_to_dict(*res),
            from_payload=_io.t0_search_from_dict,
        )
    if bracket is None:
        try:
            bracket = t0_bracket(p, c)
        except ValueError:
            # GENERAL shape: no Theorem 3.3 upper bound; fall back to the
            # Theorem 3.2 lower bound and a horizon-scale ceiling.
            from .t0_bounds import lower_bound_t0

            lo = lower_bound_t0(p, c)
            hi = p.lifespan if math.isfinite(p.lifespan) else float(p.inverse(1e-6))
            bracket = Bracket(lo, max(hi, lo))
    lo = max(c * (1 + 1e-9), bracket.lo / widen)
    hi = bracket.hi * widen
    if math.isfinite(p.lifespan):
        hi = min(hi, p.lifespan * (1 - 1e-12))
    if hi <= lo:
        hi = lo * (1 + 1e-6)

    evaluated: dict[float, tuple[Optional[RecurrenceOutcome], float]] = {}

    def evaluate(t0: float) -> tuple[Optional[RecurrenceOutcome], float]:
        if t0 not in evaluated:
            if t0 <= c:
                evaluated[t0] = (None, -math.inf)
            else:
                try:
                    outcome = generate_schedule(p, c, t0)
                except InvalidScheduleError:
                    evaluated[t0] = (None, -math.inf)
                else:
                    evaluated[t0] = (outcome, outcome.schedule.expected_work(p, c))
        return evaluated[t0]

    ts = np.linspace(lo, hi, grid)
    batch = generate_schedules_batch(p, c, ts)
    values = batch.expected_work.copy()
    k = int(np.argmax(values))
    # Seed the memo with the grid winner's outcome, rescored the scalar way
    # so the returned E is bit-for-bit the scalar recurrence's.
    out_k = batch.outcome(k)
    evaluated[float(ts[k])] = (out_k, out_k.schedule.expected_work(p, c))
    values[k] = evaluated[float(ts[k])][1]
    ref_lo = float(ts[max(0, k - 1)])
    ref_hi = float(ts[min(grid - 1, k + 1)])
    res = minimize_scalar(
        lambda t: -evaluate(float(t))[1],
        bounds=(ref_lo, ref_hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    t0 = float(res.x) if -float(res.fun) >= values[k] else float(ts[k])
    outcome, ew = evaluate(t0)  # memo hit: the winner is never regenerated
    return t0, outcome, ew


def _t0_search_key(
    fingerprint: str,
    c: float,
    bracket: Optional[Bracket] = None,
    grid: int = 129,
    widen: float = 1.5,
) -> str:
    """The plan-cache key of one :func:`optimize_t0_via_recurrence` query.

    ``fingerprint`` is the life function's content address
    (:meth:`~repro.core.plancache.PlanCache.fingerprint_of`).  The serving
    cache tier peeks the key the optimizer tier writes, so both build it here.
    """
    return plan_key(
        "t0opt", fingerprint, c,
        bracket=None if bracket is None else (bracket.lo, bracket.hi),
        # engine=batch stays in the key so earlier disk entries stay addressable.
        grid=grid, widen=widen, engine="batch",
    )
