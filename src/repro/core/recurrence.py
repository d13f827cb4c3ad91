"""The guideline recurrence (Theorem 3.1 / Corollary 3.1).

For an optimal schedule ``S = t_0, t_1, ...`` under a differentiable life
function ``p``, Corollary 3.1 gives the computationally friendly system

    p(T_k) = p(T_{k-1}) + (t_{k-1} - c) * p'(T_{k-1}),      k >= 1.     (3.6)

Because ``p`` is strictly decreasing where positive, each equation determines
``T_k`` (hence ``t_k = T_k - T_{k-1}``) from the state ``(T_{k-1}, t_{k-1})``:
the right-hand side is a *target* survival value, and ``T_k = p^{-1}(target)``.
The paper highlights the "progressive" nature of this system — ``t_{k+1}`` can
be chosen only after period ``k`` is fixed — which the progressive scheduler
(:mod:`repro.core.progressive`) exploits with conditional probabilities.

This module provides:

* :func:`next_period` — one recurrence step, with exact closed forms for the
  Section 4 families (eqs. 4.1, 4.6, 4.7 and the general ``p_{d,L}`` form)
  and a numerically robust generic path via ``p^{-1}``;
* :func:`generate_schedule` — iterate from ``t_0`` to a full schedule, with a
  principled termination rule and a reported termination reason;
* :func:`recurrence_residuals` / :func:`satisfies_recurrence` — verify that a
  given schedule satisfies system (3.6), used by tests and by the Theorem 5.1
  local-optimality experiments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import InvalidScheduleError
from ..types import FloatArray
from .life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    LifeFunction,
    PolynomialRisk,
)
from .schedule import Schedule

__all__ = [
    "Termination",
    "RecurrenceOutcome",
    "next_period",
    "generate_schedule",
    "recurrence_residuals",
    "satisfies_recurrence",
]


class Termination(enum.Enum):
    """Why :func:`generate_schedule` stopped emitting periods."""

    #: The recurrence target ``p(T_{k-1}) + (t_{k-1}-c) p'(T_{k-1})`` fell to
    #: (or below) zero: no further boundary exists inside the support.
    TARGET_NONPOSITIVE = "target_nonpositive"
    #: The next period length would be ``<= c`` — it could contribute no work
    #: (Proposition 2.1), so the schedule ends.
    UNPRODUCTIVE = "unproductive"
    #: The cumulative boundary reached the potential lifespan ``L``.
    LIFESPAN_EXHAUSTED = "lifespan_exhausted"
    #: Tail contributions dropped below tolerance (infinite-support case).
    TAIL_NEGLIGIBLE = "tail_negligible"
    #: Hit ``max_periods`` before any other rule fired.
    MAX_PERIODS = "max_periods"


@dataclass(frozen=True)
class RecurrenceOutcome:
    """A guideline-generated schedule plus diagnostics."""

    schedule: Schedule
    termination: Termination
    #: Target survival values used at each recurrence step (length ``m - 1``).
    targets: FloatArray

    @property
    def num_periods(self) -> int:
        return self.schedule.num_periods


# ----------------------------------------------------------------------
# Closed-form single steps for the Section 4 families
# ----------------------------------------------------------------------


def _next_polynomial(p: PolynomialRisk, c: float, t_prev: float, boundary_prev: float) -> float:
    """Section 4.1's closed form for ``p_{d,L}``.

    ``t_k = ((1 + d (t_{k-1} - c) / T_{k-1})^{1/d} - 1) * T_{k-1}``; for
    ``d = 1`` this is eq. (4.1): ``t_k = t_{k-1} - c``.
    """
    if p.d == 1:
        return t_prev - c
    ratio = 1.0 + p.d * (t_prev - c) / boundary_prev
    if ratio <= 0.0:
        return math.nan
    return (ratio ** (1.0 / p.d) - 1.0) * boundary_prev


def _next_geometric_decreasing(
    p: GeometricDecreasingLifespan, c: float, t_prev: float
) -> float:
    """Section 4.2's closed form (eq. 4.6): ``a^{-t_k} = 1 + (c - t_{k-1}) ln a``.

    Solvable only while ``t_{k-1} < c + 1/ln a`` (the paper's parenthetical
    remark); beyond that the target is non-positive and the schedule ends.
    """
    arg = 1.0 + (c - t_prev) * p.ln_a
    if arg <= 0.0:
        return math.nan
    return -math.log(arg) / p.ln_a


def _next_geometric_increasing(c: float, t_prev: float) -> float:
    """Section 4.3's closed form (eq. 4.7): ``t_k = log2((t_{k-1} - c) ln 2 + 1)``."""
    arg = (t_prev - c) * math.log(2.0) + 1.0
    if arg <= 0.0:
        return math.nan
    return math.log2(arg)


# ----------------------------------------------------------------------
# Generic step
# ----------------------------------------------------------------------


def recurrence_target(
    p: LifeFunction, c: float, t_prev: float, boundary_prev: float
) -> float:
    """The right-hand side of (3.6): ``p(T_{k-1}) + (t_{k-1} - c) p'(T_{k-1})``."""
    return float(p(boundary_prev)) + (t_prev - c) * float(p.derivative(boundary_prev))


def next_period(
    p: LifeFunction,
    c: float,
    t_prev: float,
    boundary_prev: float,
    use_closed_form: bool = True,
) -> Optional[float]:
    """One step of system (3.6): the next period length, or ``None`` if none exists.

    ``None`` signals that the recurrence target is non-positive (the schedule
    cannot continue inside the support).  A returned value may still be
    ``<= c``; the caller decides whether to keep such an unproductive period
    (:func:`generate_schedule` drops it and stops).
    """
    if use_closed_form:
        step = _closed_form_step(p, c, t_prev, boundary_prev)
        if step is not None:
            return None if math.isnan(step) else step

    target = recurrence_target(p, c, t_prev, boundary_prev)
    p_prev = float(p(boundary_prev))
    if target <= 0.0 or target >= p_prev:
        # target >= p_prev would require the boundary to move backwards,
        # which happens only for t_prev < c; treat as termination.
        return None if target <= 0.0 else 0.0
    boundary_next = float(p.inverse(target))
    return boundary_next - boundary_prev


def _closed_form_step(
    p: LifeFunction, c: float, t_prev: float, boundary_prev: float
) -> Optional[float]:
    """Dispatch to a Section 4 closed form; ``None`` means "no closed form"."""
    if isinstance(p, PolynomialRisk):
        return _next_polynomial(p, c, t_prev, boundary_prev)
    if isinstance(p, GeometricDecreasingLifespan):
        return _next_geometric_decreasing(p, c, t_prev)
    if isinstance(p, GeometricIncreasingRisk):
        return _next_geometric_increasing(c, t_prev)
    return None


# ----------------------------------------------------------------------
# Full schedule generation
# ----------------------------------------------------------------------


def generate_schedule(
    p: LifeFunction,
    c: float,
    t0: float,
    max_periods: int = 10_000,
    tail_tol: float = 1e-12,
    use_closed_form: bool = True,
) -> RecurrenceOutcome:
    """Generate a full guideline schedule from the initial period length ``t0``.

    Iterates system (3.6) from ``(t_0, T_0 = t_0)``.  Termination rules, in
    priority order at each step:

    1. boundary reached the lifespan → ``LIFESPAN_EXHAUSTED``;
    2. recurrence target non-positive → ``TARGET_NONPOSITIVE``;
    3. next period ``<= c`` (zero work; Proposition 2.1) → ``UNPRODUCTIVE``;
    4. next period's expected contribution below ``tail_tol`` relative to the
       accumulated expectation, with negligible residual survival →
       ``TAIL_NEGLIGIBLE`` (only reachable for unbounded support);
    5. ``max_periods`` periods emitted → ``MAX_PERIODS``.

    The returned schedule always contains at least the initial period.

    Raises
    ------
    InvalidScheduleError
        If ``t0 <= c`` (the initial period must be productive), ``c < 0``, or
        either is not finite.
    """
    if not 0 <= c < math.inf:
        raise InvalidScheduleError(f"overhead c must be nonnegative and finite, got {c}")
    if not c < t0 < math.inf:
        raise InvalidScheduleError(
            f"initial period t0 = {t0} must be finite and exceed the overhead c = {c}"
        )
    if math.isfinite(p.lifespan) and t0 >= p.lifespan:
        # A single period spanning the whole lifespan earns p(L) = 0; clamp
        # rather than reject so t0 sweeps remain total.
        return RecurrenceOutcome(
            Schedule([min(t0, p.lifespan)]),
            Termination.LIFESPAN_EXHAUSTED,
            np.array([]),
        )

    lifespan = p.lifespan
    finite_life = math.isfinite(lifespan)
    periods = [float(t0)]
    targets: list[float] = []
    boundary = float(t0)
    p_here = float(p(boundary))  # survival at the current boundary (cached)
    e_so_far = max(0.0, t0 - c) * p_here
    termination = Termination.MAX_PERIODS
    sqrt_tail = math.sqrt(tail_tol)

    for _ in range(max_periods - 1):
        if finite_life and boundary >= lifespan - 1e-15 * lifespan:
            termination = Termination.LIFESPAN_EXHAUSTED
            break
        t_prev = periods[-1]
        closed = _closed_form_step(p, c, t_prev, boundary) if use_closed_form else None
        if closed is not None:
            t_next: Optional[float] = None if math.isnan(closed) else closed
            target = math.nan  # closed forms never need the explicit target
        else:
            target = p_here + (t_prev - c) * float(p.derivative(boundary))
            if target <= 0.0:
                t_next = None
            elif target >= p_here:
                t_next = 0.0
            else:
                t_next = float(p.inverse(target)) - boundary
        if t_next is None:
            termination = Termination.TARGET_NONPOSITIVE
            break
        if t_next <= c:
            termination = Termination.UNPRODUCTIVE
            break
        if finite_life and boundary + t_next > lifespan:
            # The recurrence wants to overshoot L; the residual window
            # [boundary, L] earns p(L) = 0, so end the schedule here.
            termination = Termination.LIFESPAN_EXHAUSTED
            break
        if math.isnan(target):
            target = recurrence_target(p, c, t_prev, boundary)
        targets.append(target)
        boundary += t_next
        periods.append(float(t_next))
        p_here = float(p(boundary))
        contribution = (t_next - c) * p_here
        e_so_far += contribution
        if contribution < tail_tol * max(1.0, e_so_far) and p_here < sqrt_tail:
            termination = Termination.TAIL_NEGLIGIBLE
            break

    return RecurrenceOutcome(Schedule(periods), termination, np.asarray(targets, dtype=float))


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def recurrence_residuals(schedule: Schedule, p: LifeFunction, c: float) -> FloatArray:
    """Residuals of system (3.6) for ``k = 1 .. m-1``.

    ``r_k = p(T_k) - p(T_{k-1}) - (t_{k-1} - c) * p'(T_{k-1})`` — identically
    zero (up to numerics) for a guideline-generated schedule.
    """
    boundaries = schedule.boundaries
    if schedule.num_periods < 2:
        return np.array([])
    p_vals = np.asarray(p(boundaries), dtype=float)
    dp_vals = np.asarray(p.derivative(boundaries[:-1]), dtype=float)
    return p_vals[1:] - p_vals[:-1] - (schedule.periods[:-1] - c) * dp_vals


def satisfies_recurrence(
    schedule: Schedule, p: LifeFunction, c: float, atol: float = 1e-8
) -> bool:
    """Whether the schedule satisfies Corollary 3.1's system within ``atol``."""
    residuals = recurrence_residuals(schedule, p, c)
    return bool(np.all(np.abs(residuals) <= atol))
