"""Single-episode semantics of the cycle-stealing model (Section 2.1).

An *episode* is one interval of borrowed time on workstation B.  The owner
returns at a random reclaim time ``R`` with survival ``P(R > t) = p(t)``.
Running schedule ``S = t_0, t_1, ...`` against the episode banks

    work(S, R) = sum_i (t_i ⊖ c) * 1[R > T_i]

— period ``i``'s work survives only if B is still free at the period's end
``T_i``; the interrupted period (and everything after) is lost, which is
exactly the accounting behind eq. (2.1): ``E[work(S, R)] = E(S; p)``.

Batch simulation is delegated to one of two interchangeable engines (see
:func:`simulate_episodes`): the default ``"vectorized"`` engine
(:mod:`repro.simulation.vectorized`) runs a batch in O(periods) NumPy steps,
while the ``"scalar"`` engine (:mod:`repro.simulation.scalar`) is the
loop-per-episode reference transcription of §2.1 used as the differential-
testing oracle.  Both obey the same RNG-consumption contract — one
``p.sample_reclaim_times(rng, n)`` call per batch — so identical generator
state gives bit-identical episode outcomes from either engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.life_functions import LifeFunction
from ..core.schedule import Schedule
from ..types import ArrayLike, FloatArray

__all__ = [
    "realized_work",
    "completed_periods",
    "simulate_episodes",
    "EpisodeBatch",
    "ENGINES",
]

#: The interchangeable batch-simulation engines, in preference order; both
#: are bit-identical under the shared RNG contract.
ENGINES = ("vectorized", "scalar")


def completed_periods(schedule: Schedule, reclaim_times: ArrayLike) -> np.ndarray:
    """Number of fully-survived periods for each reclaim time (vectorized).

    Period ``i`` completes iff ``T_i < R``; ``searchsorted(boundaries, R,
    'left')`` counts exactly the boundaries strictly below ``R``.
    """
    r = np.atleast_1d(np.asarray(reclaim_times, dtype=float))
    return np.searchsorted(schedule.boundaries, r, side="left")


def realized_work(schedule: Schedule, reclaim_times: ArrayLike, c: float) -> FloatArray:
    """Banked work for each reclaim time in a batch (vectorized).

    Matches :meth:`repro.core.schedule.Schedule.realized_work` elementwise
    (tested), but runs in ``O(m + n log m)`` for ``n`` episodes.
    """
    k = completed_periods(schedule, reclaim_times)
    cumulative = np.concatenate(([0.0], np.cumsum(schedule.work_per_period(c))))
    out = cumulative[k]
    return float(out[0]) if np.ndim(reclaim_times) == 0 else out


@dataclass(frozen=True)
class EpisodeBatch:
    """Outcome of simulating a batch of independent episodes."""

    #: Sampled reclaim times, shape ``(n,)``.
    reclaim_times: FloatArray
    #: Banked work per episode, shape ``(n,)``.
    work: FloatArray
    #: Completed (survived) periods per episode, shape ``(n,)``.
    periods_completed: np.ndarray

    @property
    def n(self) -> int:
        return int(self.work.size)

    @property
    def mean_work(self) -> float:
        return float(self.work.mean())


def simulate_episodes(
    schedule: Schedule,
    p: LifeFunction,
    c: float,
    n: int,
    rng: np.random.Generator,
    engine: str = "vectorized",
) -> EpisodeBatch:
    """Sample ``n`` episodes of the given life function and run the schedule.

    Reclaim times are drawn by inverse transform (``R = p^{-1}(U)``), so the
    sampled distribution matches ``p`` exactly wherever the family provides a
    closed-form inverse (all Section 4 families do).

    RNG contract: exactly one ``p.sample_reclaim_times(rng, n)`` call per
    invocation, regardless of ``engine`` — the per-episode outcomes are
    bit-identical across engines for the same generator state.

    Parameters
    ----------
    engine:
        ``"vectorized"`` (default, O(periods) NumPy steps) or ``"scalar"``
        (the per-episode reference loop; orders of magnitude slower).
    """
    if n < 1:
        raise ValueError(f"need at least one episode, got n={n}")
    if engine == "vectorized":
        from .vectorized import simulate_episodes_vectorized

        return simulate_episodes_vectorized(schedule, p, c, n, rng)
    if engine == "scalar":
        from .scalar import simulate_episodes_scalar

        return simulate_episodes_scalar(schedule, p, c, n, rng)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
