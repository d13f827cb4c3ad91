"""Single-episode semantics of the cycle-stealing model (Section 2.1).

An *episode* is one interval of borrowed time on workstation B.  The owner
returns at a random reclaim time ``R`` with survival ``P(R > t) = p(t)``.
Running schedule ``S = t_0, t_1, ...`` against the episode banks

    work(S, R) = sum_i (t_i ⊖ c) * 1[R > T_i]

— period ``i``'s work survives only if B is still free at the period's end
``T_i``; the interrupted period (and everything after) is lost, which is
exactly the accounting behind eq. (2.1): ``E[work(S, R)] = E(S; p)``.

:func:`simulate_episodes` runs a batch on the NumPy engine
(:mod:`repro.simulation.vectorized`) in O(periods) array steps.  The
loop-per-episode transcription of §2.1,
:func:`~repro.simulation.scalar.simulate_episodes_scalar`, is the oracle the
differential tests (:mod:`repro.simulation.testing`) check it against; it is
called by name, never selected by an option.  Both obey the same
RNG-consumption contract — one ``p.sample_reclaim_times(rng, n)`` call per
batch — so identical generator state gives bit-identical episode outcomes.
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
]


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
) -> EpisodeBatch:
    """Sample ``n`` episodes of the given life function and run the schedule.

    Reclaim times are drawn by inverse transform (``R = p^{-1}(U)``), so the
    sampled distribution matches ``p`` exactly wherever the family provides a
    closed-form inverse (all Section 4 families do).

    RNG contract: exactly one ``p.sample_reclaim_times(rng, n)`` call per
    invocation — the per-episode outcomes are bit-identical to
    :func:`~repro.simulation.scalar.simulate_episodes_scalar`'s for the same
    generator state.
    """
    from .vectorized import simulate_episodes_vectorized  # imports this module

    return simulate_episodes_vectorized(schedule, p, c, n, rng)
