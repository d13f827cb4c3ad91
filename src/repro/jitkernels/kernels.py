"""The ``numba.njit(cache=True)`` kernel definitions.

Import this module only through :func:`repro.jitkernels.kernels` — importing
it directly raises ``ImportError`` when numba is absent.  All kernels are
``cache=True`` so compiled machine code persists under ``NUMBA_CACHE_DIR``
(pointed at ``<plan-cache dir>/numba`` by the package probe) and later
processes — including sharded serving workers — load it instead of
recompiling.

Numerical contract with the NumPy engines
-----------------------------------------
Each kernel replays the corresponding NumPy engine *operation for
operation in the same order*, so results are bit-identical wherever the
per-element math is: the uniform / ``d = 1`` polynomial family (pure
``+ - * /`` arithmetic) matches exactly.  The only tolerated divergence is
ULP-scale rounding where numba lowers a transcendental to the scalar libm
call while NumPy uses its own (possibly SIMD) ufunc kernel; the exhaustive
list of such sites is:

* ``pow`` — polynomial survival ``(t/L)**d`` and step ``ratio**(1/d)``
  (``d >= 2`` only);
* ``exp`` / ``log`` — geometric-decreasing survival and step;
* ``exp`` / ``expm1`` / ``log2`` — geometric-increasing survival and step.

The differential suite (``tests/core/test_jitkernels.py``) pins this down:
bit-identical for uniform/poly-d1, ``<= 4`` ULP per emitted period at the
listed sites otherwise, with identical period counts and termination codes.
"""

from __future__ import annotations

import math

import numpy as np
from numba import njit

#: Termination codes, identical to ``_TERMINATION_BY_CODE`` in
#: :mod:`repro.core.hetero_recurrence`: (TARGET_NONPOSITIVE, UNPRODUCTIVE,
#: LIFESPAN_EXHAUSTED, TAIL_NEGLIGIBLE, MAX_PERIODS).
TERM_TARGET_NONPOSITIVE = 0
TERM_UNPRODUCTIVE = 1
TERM_LIFESPAN_EXHAUSTED = 2
TERM_TAIL_NEGLIGIBLE = 3
TERM_MAX_PERIODS = 4

#: Family codes, mirroring :mod:`repro.jitkernels`.
FAM_POLY = 0
FAM_GEOMDEC = 1
FAM_GEOMINC = 2

_LN2 = math.log(2.0)


@njit(cache=True, inline="always")
def _survival(fam, d, df, theta, ln_a, denom, t):
    """Lane-wise ``p(t; θ)`` with the engines' ``[0, 1]`` clamping.

    ``ln_a`` (geomdec) and ``denom`` (geominc) are lane constants hoisted by
    the caller.  ``d = 1`` avoids ``pow`` entirely so the uniform family
    stays bit-identical to NumPy's exponent-1 fast path.
    """
    if fam == FAM_POLY:
        if d == 1:
            v = 1.0 - t / theta
        else:
            v = 1.0 - (t / theta) ** df
    elif fam == FAM_GEOMDEC:
        v = math.exp(-ln_a * t)
    else:  # FAM_GEOMINC
        v = -math.expm1((t - theta) * _LN2) / denom
    if v < 0.0:
        return 0.0
    if v > 1.0:
        return 1.0
    return v


@njit(cache=True)
def hetero_recurrence(fam, d, cs, params, t0s, max_periods, tail_tol):
    """System (3.6) over mixed ``(c, θ, t0)`` lanes, one scalar loop per lane.

    The NumPy engines advance all lanes per step because vector ops are their
    only fast primitive; compiled code wants the transpose — each lane runs
    its whole recurrence in registers, no compaction, no temporaries.  Lanes
    are independent, and every per-step operation (step formula, termination
    tests in priority order, left-to-right E accumulation) replays the NumPy
    engines' order exactly, so results agree up to the module-documented
    ULP sites.

    Returns ``(periods, num_periods, term_codes, expected_work)`` with
    ``periods`` NaN-padded to the longest lane, matching
    :func:`repro.core.hetero_recurrence.generate_schedules_hetero`.
    """
    n = t0s.shape[0]
    df = float(d)
    inv_d = 1.0 / df
    sqrt_tail = math.sqrt(tail_tol)

    term = np.full(n, TERM_MAX_PERIODS, dtype=np.int8)
    num_periods = np.empty(n, dtype=np.int64)
    e_full = np.zeros(n, dtype=np.float64)

    cap = 32
    periods = np.full((n, cap), np.nan)
    max_m = 1

    for i in range(n):
        c = cs[i]
        theta = params[i]
        t0 = t0s[i]

        # Hoisted lane constants (lifespan, family transforms).
        if fam == FAM_GEOMDEC:
            life = np.inf
            ln_a = math.log(theta)
            denom = 1.0
        elif fam == FAM_GEOMINC:
            life = theta
            ln_a = 0.0
            denom = -math.expm1(-theta * _LN2)
        else:
            life = theta
            ln_a = 0.0
            denom = 1.0
        finite_life = math.isfinite(life)

        # A t0 spanning the whole lifespan collapses to one clamped period
        # (the engines' shared pre-loop rule); its banked E stays 0.
        first = t0
        alive = True
        if finite_life and t0 >= life:
            first = min(t0, life)
            term[i] = TERM_LIFESPAN_EXHAUSTED
            alive = False
        periods[i, 0] = first
        m = 1

        tp = first
        b = first
        e = 0.0
        if alive:
            ph = _survival(fam, d, df, theta, ln_a, denom, b)
            w = tp - c
            if w < 0.0:
                w = 0.0
            e = w * ph
            edge = life - 1e-15 * life
            for _ in range(max_periods - 1):
                if finite_life and b >= edge:
                    term[i] = TERM_LIFESPAN_EXHAUSTED
                    break

                # Closed-form Section 4 recurrence step; ``has = False``
                # encodes the NumPy engines' NaN ("target non-positive").
                has = True
                t_next = 0.0
                if fam == FAM_POLY:
                    if d == 1:
                        t_next = tp - c  # eq. (4.1)
                    else:
                        ratio = 1.0 + df * (tp - c) / b
                        if ratio > 0.0:
                            t_next = (ratio ** inv_d - 1.0) * b
                        else:
                            has = False
                elif fam == FAM_GEOMDEC:
                    arg = 1.0 + (c - tp) * ln_a
                    if arg > 0.0:
                        t_next = -math.log(arg) / ln_a
                    else:
                        has = False
                else:  # FAM_GEOMINC
                    arg = (tp - c) * _LN2 + 1.0
                    if arg > 0.0:
                        t_next = math.log2(arg)
                    else:
                        has = False

                # Termination tests in the engines' priority order.
                if not has:
                    term[i] = TERM_TARGET_NONPOSITIVE
                    break
                if t_next <= c:
                    term[i] = TERM_UNPRODUCTIVE
                    break
                if finite_life and b + t_next > life:
                    term[i] = TERM_LIFESPAN_EXHAUSTED
                    break

                if m == cap:
                    cap *= 2
                    grown = np.full((n, cap), np.nan)
                    grown[:, : periods.shape[1]] = periods
                    periods = grown
                periods[i, m] = t_next
                m += 1

                b = b + t_next
                tp = t_next
                ph = _survival(fam, d, df, theta, ln_a, denom, b)
                contribution = (t_next - c) * ph
                e = e + contribution
                floor = e if e > 1.0 else 1.0
                if contribution < tail_tol * floor and ph < sqrt_tail:
                    term[i] = TERM_TAIL_NEGLIGIBLE
                    break

        num_periods[i] = m
        e_full[i] = e + 0.0  # normalize IEEE -0.0, as the engines do
        if m > max_m:
            max_m = m

    return periods[:, :max_m], num_periods, term, e_full


@njit(cache=True)
def expected_work_rows(periods, fam, d, cs, params):
    """Row-wise eq. (2.1) over a NaN-padded period block, scalar-engine order.

    Accumulates each lane's boundary and work sum strictly left to right —
    the order the scalar engine and the hetero engine use — unlike NumPy's
    pairwise row reduction, so values may differ from
    :func:`repro.core.batch_recurrence.batch_expected_work` by
    summation-order float noise (the two NumPy engines already differ the
    same way).  NaN padding is trailing by construction, so the row stops at
    the first NaN.
    """
    n, width = periods.shape
    df = float(d)
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        c = cs[i]
        theta = params[i]
        if fam == FAM_GEOMDEC:
            ln_a = math.log(theta)
            denom = 1.0
        elif fam == FAM_GEOMINC:
            ln_a = 0.0
            denom = -math.expm1(-theta * _LN2)
        else:
            ln_a = 0.0
            denom = 1.0
        b = 0.0
        e = 0.0
        for j in range(width):
            t = periods[i, j]
            if math.isnan(t):
                break
            b += t
            ph = _survival(fam, d, df, theta, ln_a, denom, b)
            w = t - c
            if w < 0.0:
                w = 0.0
            e += w * ph
        out[i] = e + 0.0
    return out


@njit(cache=True)
def episodes_gather(boundaries, cumulative, reclaim):
    """The vectorized episode simulator's inner pass as one fused loop.

    For each reclaim time: a ``side='left'`` binary search over the period
    boundaries (a reclaim *at* ``T_k`` kills period ``k`` — the draconian
    tie-break), then a gather from the cumulative-work table.  Pure integer
    search + float gather, so the result is bit-identical to
    ``np.searchsorted`` + fancy indexing; the win is fusing the two passes
    and skipping the intermediate index array's round-trip through Python.

    Returns ``(work, periods_completed)``.
    """
    n = reclaim.shape[0]
    m = boundaries.shape[0]
    work = np.empty(n, dtype=np.float64)
    ks = np.empty(n, dtype=np.intp)
    for i in range(n):
        r = reclaim[i]
        lo = 0
        hi = m
        while lo < hi:
            mid = (lo + hi) >> 1
            if boundaries[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        ks[i] = lo
        work[i] = cumulative[lo]
    return work, ks


@njit(cache=True)
def fleet_checkout_fixup(cum, base, used, limit, lo, hi, j):
    """The range-pool checkout cut fix-up: clamp + the two exact scan loops.

    ``j`` is any starting estimate (binary search or mean-duration hint);
    the loops converge to the unique cut satisfying the scalar admission
    test ``used + (cum[k] - base) <= limit``, so the result is independent
    of the seed and bit-identical to the Python loops in
    ``repro.now.fleet._RangePool.checkout``.
    """
    if j < lo:
        j = lo
    elif j > hi:
        j = hi
    while j < hi and used + (cum[j + 1] - base) <= limit:
        j += 1
    while j > lo and used + (cum[j] - base) > limit:
        j -= 1
    return j


@njit(cache=True)
def fleet_event_order(times, prios, seqs):
    """Stable ``(time, prio, seq)`` ordering of the fleet's static events.

    Three chained stable argsorts (least-significant key first) — exactly
    ``np.lexsort((seqs, prios, times))``, which is what the NumPy fallback
    uses.  Keys are unique per event, so the order is total and both
    engines agree bit-for-bit.
    """
    order = np.argsort(seqs, kind="mergesort")
    order = order[np.argsort(prios[order], kind="mergesort")]
    return order[np.argsort(times[order], kind="mergesort")]


def warmup() -> None:
    """Force-compile every kernel on tiny inputs (shared-cache warm pass).

    One call per distinct signature; afterwards the on-disk cache holds
    machine code any later process loads without compiling.
    """
    cs = np.array([0.5])
    for fam, theta in ((FAM_POLY, 100.0), (FAM_GEOMDEC, 1.2), (FAM_GEOMINC, 30.0)):
        res = hetero_recurrence(fam, 1, cs, np.array([theta]), np.array([5.0]),
                                64, 1e-12)
        expected_work_rows(res[0], fam, 1, cs, np.array([theta]))
    hetero_recurrence(FAM_POLY, 3, cs, np.array([100.0]), np.array([5.0]), 64, 1e-12)
    episodes_gather(np.array([1.0, 2.0]), np.array([0.0, 0.5, 1.0]),
                    np.array([0.7, 1.5, 9.0]))
    fleet_checkout_fixup(np.array([0.0, 0.5, 1.0, 1.5]), 0.0, 0.0, 1.0 + 1e-12,
                         0, 3, 1)
    fleet_event_order(np.array([1.0, 0.5]), np.array([2, 1], dtype=np.int64),
                      np.array([4, 1], dtype=np.int64))
