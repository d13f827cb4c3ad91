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

    ``survival`` and ``step`` are the kernel (see the module docstring); it
    must return fresh arrays, since the loop keeps each step's periods by
    reference.  Returns ``(periods, num_periods, termination_codes,
    expected_work)``: NaN-padded periods of shape ``(n_lanes, max_m)`` and
    ``E(S; p)`` accumulated left to right, as the scalar engine does.

    The live lanes are kept compacted: a lane that ends is dropped from
    every state vector, so a step costs in proportion to the lanes still
    running.  Compaction runs only on steps where some lane ends.  Nothing
    is scattered back to full width inside the loop: ended lanes' ``E`` and
    the periods and overheads that decide their codes are collected as they
    end, and written once after it, as is the period matrix, from the
    per-step ``(lanes, periods)`` columns.  The tail rule is tested only on
    steps where some ``p(T_k) < sqrt(tail_tol)``.
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
    # everything else (previous period, boundary T_{k-1}, per-lane c/θ/L and
    # lifespan threshold, p(T_{k-1}), banked E) lives in dense arrays the
    # vector ops run over directly.
    idx = np.nonzero(alive)[0]
    tp = b = first[idx]
    lc, lv, ll = cs[idx], params[idx], lifespans[idx]
    with np.errstate(invalid="ignore"):  # L = inf gives NaN, which no T reaches
        near_end = ll - 1e-15 * ll
    ph = survival(lv, b) if idx.size else np.empty(0)
    e = np.maximum(0.0, tp - lc) * ph
    # Per step, the surviving lanes and their new periods; per ending, the
    # lanes with their E, and (step rules) the period and c that ended them.
    emitted: list[tuple[np.ndarray, FloatArray]] = []
    done: list[tuple[np.ndarray, FloatArray]] = []
    cut: list[tuple[np.ndarray, FloatArray, FloatArray]] = []

    for _ in range(max_periods - 1):
        if idx.size == 0:
            break
        if finite_life:
            hit = b >= near_end
            if hit.any():
                term[idx[hit]] = _CODE[Termination.LIFESPAN_EXHAUSTED]
                done.append((idx[hit], e[hit]))
                idx, tp, b, lc, lv, ll, near_end, ph, e = _keep(
                    ~hit, idx, tp, b, lc, lv, ll, near_end, ph, e
                )
                if idx.size == 0:
                    break

        t_next = step(lc, lv, tp, b, ph)
        b_next = b + t_next
        # False on NaN (target non-positive) and on t_next <= c alike.
        ok = t_next > lc
        if finite_life:
            ok &= b_next <= ll
        if not ok.all():
            ends = ~ok
            lanes = idx[ends]
            done.append((lanes, e[ends]))
            cut.append((lanes, t_next[ends], lc[ends]))
            idx, t_next, b_next, lc, lv, ll, near_end, e = _keep(
                ok, idx, t_next, b_next, lc, lv, ll, near_end, e
            )
            if idx.size == 0:
                break

        emitted.append((idx, t_next))
        tp, b = t_next, b_next
        ph = survival(lv, b)
        contribution = (t_next - lc) * ph
        e = e + contribution
        low = ph < sqrt_tail
        if low.any():
            negligible = (contribution < tail_tol * np.maximum(1.0, e)) & low
            if negligible.any():
                term[idx[negligible]] = _CODE[Termination.TAIL_NEGLIGIBLE]
                done.append((idx[negligible], e[negligible]))
                idx, tp, b, lc, lv, ll, near_end, ph, e = _keep(
                    ~negligible, idx, tp, b, lc, lv, ll, near_end, ph, e
                )

    if cut:
        # Codes in reverse priority order, each rule overriding the ones it
        # outranks, so the scalar engine's first-matching rule is what stays.
        lanes, t_end, c_end = (np.concatenate(a) for a in zip(*cut))
        term[lanes] = _CODE[Termination.LIFESPAN_EXHAUSTED]
        term[lanes[t_end <= c_end]] = _CODE[Termination.UNPRODUCTIVE]
        term[lanes[np.isnan(t_end)]] = _CODE[Termination.TARGET_NONPOSITIVE]
    e_full = np.zeros(n)
    lanes, e_end = (np.concatenate(a) for a in zip(*done, (idx, e)))
    e_full[lanes] = e_end

    periods = np.full((n, 1 + len(emitted)), np.nan)
    periods[:, 0] = first
    if emitted:
        rows, values = zip(*emitted)
        cols = np.repeat(np.arange(1, 1 + len(emitted)), [r.size for r in rows])
        periods[np.concatenate(rows), cols] = np.concatenate(values)
    num_periods = 1 + np.sum(~np.isnan(periods[:, 1:]), axis=1)
    return periods, num_periods, term, e_full + 0.0


def _keep(mask: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The rows of each lane-state array where ``mask`` holds."""
    return [a[mask] for a in arrays]


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
        On an unsupported family, mismatched lane vectors, any ``c`` that is
        negative or not finite, any ``θ`` outside the family's domain (finite,
        and ``L > 0`` or ``a > 1``), or any non-finite or unproductive
        (``t0 <= c``) initial period.  The message names the first bad lane.
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
    row = FAMILY_TABLE[family]
    _require_lanes((cs >= 0.0) & (cs < np.inf), "overhead c", cs, "nonnegative and finite")
    _require_lanes(
        (params > row.param_floor) & (params < np.inf), f"{family} parameter θ",
        params, f"finite and above {row.param_floor:g}",
    )
    _require_lanes(np.isfinite(t0_arr), "initial period t0", t0_arr, "finite")
    _require_lanes(t0_arr > cs, "initial period t0", t0_arr, "above its overhead c")
    d = int(d) if family == "poly" else 1

    periods, num_periods, term, e_full = run_lanes(
        lambda theta, t: row.survival(d, theta, t).clip(0.0, 1.0),
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


def _require_lanes(ok: np.ndarray, what: str, values: FloatArray, domain: str) -> None:
    """Raise on the first lane where ``ok`` fails (NaN comparisons fail)."""
    if not ok.all():
        lane = int(np.argmin(ok))
        raise InvalidScheduleError(f"{what} must be {domain}, got {values[lane]} at lane {lane}")
