"""Batch schedule-search engine: the Corollary 3.1 recurrence over t0 *vectors*.

The scalar engine (:func:`repro.core.recurrence.generate_schedule`) iterates
system (3.6) for one initial period ``t_0`` at a time — ``O(grid × periods)``
Python-level steps for a ``t_0`` sweep, which is the dominant cost of the
paper's search recipe (grid the Theorem 3.2/3.3 bracket, score ``E(S; p)``,
refine).  :func:`generate_schedules_batch` iterates the same system for an
**entire vector of ``t_0`` candidates simultaneously**, through the one lane
loop of :mod:`repro.core.hetero_recurrence`:

* a Section 4 family (an exact instance of one of the four classes) runs the
  table kernel with constant ``(c, θ)`` lanes — the same code path, and so
  the same bits, as batched serving's mixed-lane sweeps;
* every other life function (and every family when ``use_closed_form`` is
  off) runs a generic kernel of vectorized ``p(...)`` /
  ``p.derivative(...)`` / ``p.inverse(...)`` calls over the still-alive
  lanes.

Recurrence targets are then reconstructed from the emitted periods and
expected work rescored with :func:`batch_expected_work`, so a whole grid
costs ``O(max periods)`` vector operations.

The scalar engine remains the specification: for every lane the batch engine
must reproduce its periods, boundaries, recurrence targets, and termination
reason (up to ULP-scale float noise from ``numpy`` vs ``math`` transcendental
kernels).  :mod:`repro.core.testing` packages that cross-validation in the
style of the simulation engines' differential harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..exceptions import InvalidScheduleError
from ..types import FloatArray
from .hetero_recurrence import _TERMINATION_BY_CODE, generate_schedules_hetero, run_lanes
from .life_functions import LifeFunction
from .life_functions.families import family_of
from .recurrence import RecurrenceOutcome, Termination
from .schedule import Schedule

__all__ = [
    "BatchRecurrenceResult",
    "generate_schedules_batch",
    "batch_expected_work",
]

@dataclass(frozen=True)
class BatchRecurrenceResult:
    """Guideline schedules for a vector of ``t_0`` candidates, plus diagnostics.

    Lane ``i`` holds the schedule the Corollary 3.1 recurrence generates from
    ``t0s[i]``.  Ragged per-lane data is stored as NaN-padded rectangular
    arrays; :meth:`schedule` / :meth:`outcome` materialize single lanes in the
    scalar engine's types.
    """

    #: The initial period candidates, one per lane.
    t0s: FloatArray
    #: Period lengths, shape ``(n_lanes, max_m)``; NaN beyond a lane's end.
    periods: FloatArray
    #: Number of periods per lane.
    num_periods: np.ndarray
    #: Per-lane termination codes (indices into ``_TERMINATION_BY_CODE``).
    termination_codes: np.ndarray
    #: Recurrence targets, shape ``(n_lanes, max_m - 1)``; NaN-padded.
    targets: FloatArray
    #: ``E(S(t_0); p)`` per lane (eq. 2.1, scored over the emitted periods).
    expected_work: FloatArray

    @property
    def n_lanes(self) -> int:
        return int(self.t0s.size)

    @property
    def boundaries(self) -> FloatArray:
        """Cumulative period boundaries ``T_k`` per lane (NaN-padded)."""
        out = np.cumsum(np.where(np.isnan(self.periods), 0.0, self.periods), axis=1)
        out[np.isnan(self.periods)] = np.nan
        return out

    @property
    def best(self) -> int:
        """Index of the lane with the largest expected work."""
        return int(np.argmax(self.expected_work))

    def termination(self, i: int) -> Termination:
        """The termination reason of lane ``i``."""
        return _TERMINATION_BY_CODE[int(self.termination_codes[i])]

    @property
    def terminations(self) -> tuple[Termination, ...]:
        """Per-lane termination reasons, in lane order."""
        return tuple(_TERMINATION_BY_CODE[int(code)] for code in self.termination_codes)

    def schedule(self, i: int) -> Schedule:
        """Materialize lane ``i`` as a :class:`Schedule`."""
        m = int(self.num_periods[i])
        return Schedule(self.periods[i, :m])

    def outcome(self, i: int) -> RecurrenceOutcome:
        """Materialize lane ``i`` in the scalar engine's result type."""
        m = int(self.num_periods[i])
        targets = self.targets[i, : m - 1] if m > 1 else np.array([])
        return RecurrenceOutcome(
            self.schedule(i), self.termination(i), np.asarray(targets, dtype=float).copy()
        )


# ----------------------------------------------------------------------
# The lane engine
# ----------------------------------------------------------------------


def generate_schedules_batch(
    p: LifeFunction,
    c: float,
    t0s: Union[Sequence[float], FloatArray],
    max_periods: int = 10_000,
    tail_tol: float = 1e-12,
    use_closed_form: bool = True,
) -> BatchRecurrenceResult:
    """Iterate system (3.6) from every ``t_0`` in ``t0s`` simultaneously.

    Lane-for-lane equivalent to calling
    :func:`repro.core.recurrence.generate_schedule` on each candidate — same
    termination rules in the same priority order, same recurrence targets,
    same lifespan clamping (``t_0 >= L`` collapses to a single clamped period
    with ``LIFESPAN_EXHAUSTED``) — but each recurrence step costs a constant
    number of vector operations over the still-alive lanes instead of one
    Python iteration per lane.

    An exact Section 4 family class runs the table kernel with constant
    ``(c, θ)`` lanes through
    :func:`~repro.core.hetero_recurrence.generate_schedules_hetero`; any
    other ``p``, or ``use_closed_form=False``, runs the generic
    p/p'/p^{-1} kernel.  Targets are reconstructed and expected work
    rescored with :func:`batch_expected_work` either way.

    Raises
    ------
    InvalidScheduleError
        If ``c < 0``, ``t0s`` is empty or not one-dimensional, or any lane
        has ``t0 <= c`` (every initial period must be productive, exactly as
        the scalar engine requires).
    """
    if c < 0:
        raise InvalidScheduleError(f"overhead c must be nonnegative, got {c}")
    t0_arr = np.asarray(t0s, dtype=float)
    if t0_arr.ndim != 1:
        raise InvalidScheduleError(f"t0s must be one-dimensional, got shape {t0_arr.shape}")
    if t0_arr.size == 0:
        raise InvalidScheduleError("need at least one t0 candidate")
    if not np.all(np.isfinite(t0_arr)):
        raise InvalidScheduleError("t0 candidates must be finite")
    if np.any(t0_arr <= c):
        bad = float(t0_arr[t0_arr <= c][0])
        raise InvalidScheduleError(
            f"initial period t0 = {bad} must exceed the overhead c = {c}"
        )

    n = t0_arr.size
    cs = np.full(n, float(c))
    mapped = family_of(p) if use_closed_form else None
    if mapped is not None:
        family, d, theta = mapped
        lanes = generate_schedules_hetero(
            family, cs, np.full(n, float(theta)), t0_arr, d=d,
            max_periods=max_periods, tail_tol=tail_tol,
        )
        periods, num_periods, term = lanes.periods, lanes.num_periods, lanes.termination_codes
    else:
        periods, num_periods, term, _ = run_lanes(
            *_generic_kernel(p), cs, np.zeros(n), np.full(n, float(p.lifespan)),
            t0_arr, max_periods, tail_tol,
        )
    return BatchRecurrenceResult(
        t0s=t0_arr,
        periods=periods,
        num_periods=num_periods,
        termination_codes=term,
        targets=_targets_from_periods(p, c, periods),
        expected_work=batch_expected_work(periods, p, c),
    )


def _generic_kernel(p: LifeFunction):
    """The lane-loop kernel for any life function: vectorized p, p', p^{-1}.

    Mirrors the scalar engine's generic step: the recurrence target
    ``p(T) + (t - c) p'(T)`` is inverted where it lies strictly inside
    ``(0, p(T))``; a non-positive target ends the schedule (NaN), and a
    target at or above ``p(T)`` (only for ``t < c``) emits a zero-length
    period so the UNPRODUCTIVE rule fires.
    """

    def survival(_theta: FloatArray, t: FloatArray) -> FloatArray:
        return np.asarray(p(t), dtype=float)

    def step(c, _theta, t_prev, b_prev, p_prev):
        target = p_prev + (t_prev - c) * np.asarray(p.derivative(b_prev), dtype=float)
        t_next = np.full(t_prev.size, np.nan)
        t_next[target >= p_prev] = 0.0
        inside = (target > 0.0) & (target < p_prev)
        if np.any(inside):
            t_next[inside] = np.asarray(p.inverse(target[inside]), dtype=float) - b_prev[inside]
        return t_next

    return survival, step


def _targets_from_periods(
    p: LifeFunction, c: float, periods: FloatArray
) -> FloatArray:
    """Reconstruct the recurrence targets from an emitted period block.

    Column ``k`` of the result is ``p(T_k) + (t_k - c) p'(T_k)`` wherever
    period ``k + 1`` was emitted — exactly the value the NumPy engine records
    in its loop, because boundary accumulation is sequential in both places
    and ``p`` / ``p.derivative`` are elementwise.  Lets the lane loop skip
    recording targets without losing diagnostics.
    """
    n, width = periods.shape
    if width <= 1:
        return np.empty((n, 0))
    boundaries = np.cumsum(np.where(np.isnan(periods), 0.0, periods), axis=1)
    emitted = ~np.isnan(periods[:, 1:])
    targets = np.full((n, width - 1), np.nan)
    prev_b = boundaries[:, :-1][emitted]
    prev_t = periods[:, :-1][emitted]
    targets[emitted] = np.asarray(p(prev_b), dtype=float) + (prev_t - c) * np.asarray(
        p.derivative(prev_b), dtype=float
    )
    return targets


def batch_expected_work(
    periods: FloatArray, p: LifeFunction, c: float
) -> FloatArray:
    """Row-wise eq. (2.1) over a NaN-padded ``(n_lanes, max_m)`` period block.

    One vectorized life-function evaluation over the full boundary block; NaN
    padding contributes nothing (its work term is zeroed).  Matches
    :meth:`repro.core.schedule.Schedule.expected_work` lane-wise up to
    summation-order float noise.
    """
    if c < 0:
        raise InvalidScheduleError(f"overhead c must be nonnegative, got {c}")
    filled = np.where(np.isnan(periods), 0.0, periods)
    boundaries = np.cumsum(filled, axis=1)
    survival = np.asarray(p(boundaries), dtype=float)
    work = np.maximum(0.0, filled - c)
    # "+ 0.0" normalizes IEEE -0.0 (from p values of -0.0 at the lifespan).
    return np.sum(work * survival, axis=1) + 0.0
