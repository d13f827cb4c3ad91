"""The lane engine: system (3.6) over *mixed* ``(c, θ, t0)`` lanes.

This module holds the library's one vectorized Corollary 3.1 loop,
:func:`run_lanes`.  Each ``t_0`` candidate occupies one *lane* of a NumPy
state block ``(T_{k-1}, t_{k-1}, p(T_{k-1}), E_{so far})`` together with its
own overhead ``c``, family parameter ``θ`` and lifespan ``L``; every
recurrence step costs a constant number of vector operations over the
still-alive lanes, and lanes terminate independently with the scalar
engine's rules in its priority order (``LIFESPAN_EXHAUSTED``,
``TARGET_NONPOSITIVE``, ``UNPRODUCTIVE``, ``TAIL_NEGLIGIBLE``,
``MAX_PERIODS``).  The loop is fed one of two kernels:

* a **table kernel** — the Section 4 closed forms of
  :data:`repro.core.life_functions.families.FAMILY_TABLE` (eqs. (4.1),
  (4.6), (4.7) and the general ``p_{d,L}`` form), which are arithmetic in
  ``(c, θ)``, so a batch mixing thousands of queries still advances with one
  vector operation per step.  :func:`generate_schedules_hetero` runs this for
  batched serving and fleet planning, and
  :func:`repro.core.batch_recurrence.generate_schedules_batch` runs it with
  constant-``(c, θ)`` lanes for a single ``t_0`` sweep;
* a **generic kernel** — vectorized ``p`` / ``p'`` / ``p^{-1}`` calls on one
  life function, which ``generate_schedules_batch`` uses for every other
  family (and when closed forms are switched off).

Each lane ``i`` of :func:`generate_schedules_hetero` reproduces
:func:`repro.core.recurrence.generate_schedule` for
``(families.make(family, θ_i, d), c_i, t0_i)``: the same termination rules,
the same lifespan clamping, and the same expected work ``E(S; p)``
accumulated in the same left-to-right order.  Relative to the scalar engine
the periods may drift by an ulp where ``libm`` and NumPy's ufunc kernels
round differently, but every operation is elementwise per lane, so an
``n = 1`` call is **bit-identical** to the corresponding lane of an
``n = N`` call — the invariant the batched serving parity tests rely on
(scalar serving entry points are thin ``n = 1`` wrappers over this engine,
never a separate code path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import InvalidScheduleError
from ..types import FloatArray
from .life_functions.families import FAMILY_TABLE
from .recurrence import Termination
from .schedule import Schedule

__all__ = [
    "HETERO_FAMILIES",
    "HeteroBatchResult",
    "generate_schedules_hetero",
    "run_lanes",
]

#: Families with per-lane vectorized kernels (the Section 4 table families).
HETERO_FAMILIES = tuple(FAMILY_TABLE)

#: Stable per-lane termination codes, shared with the batch engine.
_TERMINATION_BY_CODE: tuple[Termination, ...] = (
    Termination.TARGET_NONPOSITIVE,
    Termination.UNPRODUCTIVE,
    Termination.LIFESPAN_EXHAUSTED,
    Termination.TAIL_NEGLIGIBLE,
    Termination.MAX_PERIODS,
)
_CODE: dict[Termination, int] = {t: i for i, t in enumerate(_TERMINATION_BY_CODE)}


@dataclass(frozen=True)
class HeteroBatchResult:
    """Per-lane schedules for a mixed ``(c, θ, t0)`` batch, NaN-padded."""

    family: str
    #: Per-lane overheads / family parameters / initial periods.
    cs: FloatArray
    params: FloatArray
    t0s: FloatArray
    #: Period lengths, shape ``(n_lanes, max_m)``; NaN beyond a lane's end.
    periods: FloatArray
    num_periods: np.ndarray
    termination_codes: np.ndarray
    #: ``E(S; p)`` per lane, accumulated exactly as the scalar engine does.
    expected_work: FloatArray

    @property
    def n_lanes(self) -> int:
        return int(self.t0s.size)

    def termination(self, i: int) -> Termination:
        return _TERMINATION_BY_CODE[int(self.termination_codes[i])]

    def schedule(self, i: int) -> Schedule:
        """Materialize lane ``i`` as a :class:`Schedule`."""
        m = int(self.num_periods[i])
        return Schedule(self.periods[i, :m])


# ----------------------------------------------------------------------
# The lane loop
# ----------------------------------------------------------------------

#: ``survival(θ, t)`` -> ``p(t; θ)`` clipped to ``[0, 1]``.
Survival = Callable[[FloatArray, FloatArray], FloatArray]
#: ``step(c, θ, t_prev, T_prev, p(T_prev))`` -> next period, NaN = none.
Step = Callable[[FloatArray, FloatArray, FloatArray, FloatArray, FloatArray], FloatArray]


def run_lanes(
    survival: Survival,
    step: Step,
    cs: FloatArray,
    params: FloatArray,
    lifespans: FloatArray,
    t0s: FloatArray,
    max_periods: int,
    tail_tol: float,
) -> tuple[FloatArray, np.ndarray, np.ndarray, FloatArray]:
    """Iterate system (3.6) over validated lanes with per-lane ``(c, θ, L, t0)``.

    ``survival`` and ``step`` are the kernel (see the module docstring).
    Returns ``(periods, num_periods, termination_codes, expected_work)``:
    NaN-padded periods of shape ``(n_lanes, max_m)`` and ``E(S; p)``
    accumulated left to right, as the scalar engine does.
    """
    n = t0s.size
    finite_life = bool(np.any(np.isfinite(lifespans)))

    term = np.full(n, _CODE[Termination.MAX_PERIODS], dtype=np.int8)
    alive = np.ones(n, dtype=bool)
    first = t0s.copy()
    if finite_life:
        # A t0 spanning the whole lifespan earns p(L) = 0; clamp rather than
        # reject so sweeps stay total (scalar engine's pre-loop rule).
        clamped = t0s >= lifespans
        if np.any(clamped):
            first[clamped] = np.minimum(t0s[clamped], lifespans[clamped])
            term[clamped] = _CODE[Termination.LIFESPAN_EXHAUSTED]
            alive[clamped] = False

    sqrt_tail = math.sqrt(tail_tol)

    # Compacted live-lane state: ``idx`` maps the compact rows back to lanes;
    # everything else (previous period, boundary T_{k-1}, per-lane c/θ/L,
    # p(T_{k-1}), banked E) lives in dense arrays the vector ops run over
    # directly.  Dead lanes are dropped by boolean compaction instead of
    # masked out, so per-step cost tracks the number of *surviving* lanes.
    idx = np.nonzero(alive)[0]
    tp = first[idx]
    b = first[idx]
    lc = cs[idx]
    lv = params[idx]
    ll = lifespans[idx]
    ph = survival(lv, b) if idx.size else np.empty(0)
    e_full = np.zeros(n)
    e_full[idx] = np.maximum(0.0, tp - lc) * ph
    e = e_full[idx]

    # NaN-padded output buffer, grown geometrically; column k holds period
    # k+1 for the lanes that reached it.
    cap = 32
    periods_buf = np.full((n, cap), np.nan)
    k = 0

    for _ in range(max_periods - 1):
        if idx.size == 0:
            break
        if finite_life:
            hit = b >= ll - 1e-15 * ll
            if np.any(hit):
                term[idx[hit]] = _CODE[Termination.LIFESPAN_EXHAUSTED]
                keep = ~hit
                idx, tp, b, lc, lv, ll, ph, e = (
                    idx[keep], tp[keep], b[keep], lc[keep],
                    lv[keep], ll[keep], ph[keep], e[keep],
                )
                if idx.size == 0:
                    break

        t_next = step(lc, lv, tp, b, ph)
        nonpositive = np.isnan(t_next)
        unproductive = ~nonpositive & (t_next <= lc)
        if finite_life:
            overshoot = ~nonpositive & ~unproductive & (b + t_next > ll)
            surviving = ~(nonpositive | unproductive | overshoot)
            term[idx[overshoot]] = _CODE[Termination.LIFESPAN_EXHAUSTED]
        else:
            surviving = ~(nonpositive | unproductive)
        term[idx[nonpositive]] = _CODE[Termination.TARGET_NONPOSITIVE]
        term[idx[unproductive]] = _CODE[Termination.UNPRODUCTIVE]
        if not np.any(surviving):
            break

        sidx = idx[surviving]
        tn = t_next[surviving]
        if k == cap:
            cap *= 2
            grown = np.full((n, cap), np.nan)
            grown[:, : periods_buf.shape[1]] = periods_buf
            periods_buf = grown
        periods_buf[sidx, k] = tn
        k += 1

        b = b[surviving] + tn
        tp = tn
        lc = lc[surviving]
        lv = lv[surviving]
        ll = ll[surviving]
        ph = survival(lv, b)
        contribution = (tn - lc) * ph
        e = e[surviving] + contribution
        e_full[sidx] = e
        negligible = (contribution < tail_tol * np.maximum(1.0, e)) & (ph < sqrt_tail)
        if np.any(negligible):
            term[sidx[negligible]] = _CODE[Termination.TAIL_NEGLIGIBLE]
            keep = ~negligible
            idx, tp, b, lc, lv, ll, ph, e = (
                sidx[keep], tp[keep], b[keep], lc[keep],
                lv[keep], ll[keep], ph[keep], e[keep],
            )
        else:
            idx = sidx

    periods = np.concatenate([first[:, None], periods_buf[:, :k]], axis=1)
    num_periods = 1 + np.sum(~np.isnan(periods[:, 1:]), axis=1)
    return periods, num_periods, term, e_full + 0.0


# ----------------------------------------------------------------------
# The mixed-lane engine
# ----------------------------------------------------------------------


def generate_schedules_hetero(
    family: str,
    cs: FloatArray,
    params: FloatArray,
    t0s: FloatArray,
    d: int = 1,
    max_periods: int = 10_000,
    tail_tol: float = 1e-12,
) -> HeteroBatchResult:
    """Iterate system (3.6) over lanes with per-lane ``(c, θ, t0)``.

    ``d`` is the polynomial degree (only read for ``family="poly"``;
    ``"uniform"`` is the ``d = 1`` special case).  Lane ``i`` reproduces
    ``generate_schedule(families.make(family, params[i], d), cs[i], t0s[i])``
    period-for-period, with the engine-internal expected work accumulated in
    the scalar engine's left-to-right order.

    Raises
    ------
    InvalidScheduleError
        On an unsupported family, mismatched lane vectors, any ``c < 0``, or
        any non-finite / unproductive (``t0 <= c``) initial period.
    """
    if family not in HETERO_FAMILIES:
        raise InvalidScheduleError(
            f"family {family!r} has no heterogeneous batch kernel; "
            f"expected one of {HETERO_FAMILIES}"
        )
    cs = np.asarray(cs, dtype=float)
    params = np.asarray(params, dtype=float)
    t0_arr = np.asarray(t0s, dtype=float)
    if not (cs.shape == params.shape == t0_arr.shape) or cs.ndim != 1:
        raise InvalidScheduleError(
            f"cs/params/t0s must be equal-length vectors, got shapes "
            f"{cs.shape}/{params.shape}/{t0_arr.shape}"
        )
    if t0_arr.size == 0:
        raise InvalidScheduleError("need at least one lane")
    if np.any(cs < 0):
        raise InvalidScheduleError("overheads c must be nonnegative")
    if not np.all(np.isfinite(t0_arr)):
        raise InvalidScheduleError("t0 candidates must be finite")
    if np.any(t0_arr <= cs):
        bad = int(np.argmax(t0_arr <= cs))
        raise InvalidScheduleError(
            f"initial period t0 = {t0_arr[bad]} must exceed the overhead "
            f"c = {cs[bad]} (lane {bad})"
        )
    d = int(d) if family == "poly" else 1

    row = FAMILY_TABLE[family]
    periods, num_periods, term, e_full = run_lanes(
        lambda theta, t: np.clip(row.survival(d, theta, t), 0.0, 1.0),
        lambda c, theta, t_prev, b_prev, _p_prev: row.step(d, c, theta, t_prev, b_prev),
        cs,
        params,
        np.asarray(row.lifespan(params), dtype=float),
        t0_arr,
        max_periods,
        tail_tol,
    )
    return HeteroBatchResult(
        family=family,
        cs=cs,
        params=params,
        t0s=t0_arr,
        periods=periods,
        num_periods=num_periods,
        termination_codes=term,
        expected_work=e_full,
    )
