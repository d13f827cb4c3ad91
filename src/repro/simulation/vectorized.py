"""Vectorized batch engine: N episodes in O(periods) NumPy steps.

The scalar reference engine (:mod:`repro.simulation.scalar`) walks every
episode period by period — ``O(N * m)`` Python iterations.  This engine
simulates the same batch with a fixed number of array operations:

1. draw all ``N`` reclaim times in one inverse-transform call;
2. locate each episode's first killed period with a single ``searchsorted``
   against the period boundaries ``T_0 < T_1 < ...`` (``side='left'`` encodes
   the draconian tie-break — a reclaim *at* ``T_k`` kills period ``k``);
3. read each episode's banked work off the cumulative-sum mask
   ``cumsum(t_i ⊖ c)`` in one gather.

Because ``numpy.cumsum`` accumulates left-to-right exactly like the scalar
engine's running Python sum, the two engines agree *bit-for-bit*, not just
statistically — the property the differential harness
(:mod:`repro.simulation.testing`) pins down.

RNG-consumption contract (shared with the scalar engine)
--------------------------------------------------------
A batch of ``n`` episodes consumes the generator via exactly one
``p.sample_reclaim_times(rng, n)`` call (one uniform per episode, in episode
order); passing ``reclaim_times`` consumes nothing.  Identical generator
state therefore yields identical episode outcomes from either engine.

Online policies vectorize too: a policy that is a deterministic function of
elapsed time replays the *same* period sequence in every episode until the
reclaim cuts it short, so one unrolling of the policy (out to the latest
sampled reclaim) turns policy evaluation into the schedule case.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.life_functions import LifeFunction
from ..core.schedule import Schedule
from ..exceptions import SimulationError
from ..types import FloatArray
from .episode import EpisodeBatch

__all__ = [
    "simulate_episodes_vectorized",
    "simulate_policy_episodes_vectorized",
    "unroll_policy",
]


def simulate_episodes_vectorized(
    schedule: Schedule,
    p: LifeFunction,
    c: float,
    n: int,
    rng: Optional[np.random.Generator] = None,
    reclaim_times: Optional[FloatArray] = None,
) -> EpisodeBatch:
    """Simulate ``n`` episodes of ``schedule`` in O(m + n log m) array ops.

    Exactly matches :func:`repro.simulation.scalar.simulate_episodes_scalar`
    under the shared seed contract (same generator state, or the same
    ``reclaim_times`` array, gives bit-identical outcomes).
    """
    if n < 1:
        raise ValueError(f"need at least one episode, got n={n}")
    if reclaim_times is None:
        if rng is None:
            raise ValueError("provide either rng or reclaim_times")
        reclaim_times = p.sample_reclaim_times(rng, n)
    reclaim = np.asarray(reclaim_times, dtype=float)
    if reclaim.size != n:
        raise ValueError(f"reclaim_times has {reclaim.size} entries, expected {n}")
    # Period i survives iff T_i < R strictly; 'left' counts boundaries < R.
    k = np.searchsorted(schedule.boundaries, reclaim, side="left")
    cumulative = np.concatenate(([0.0], np.cumsum(schedule.work_per_period(c))))
    return EpisodeBatch(reclaim_times=reclaim, work=cumulative[k], periods_completed=k)


def unroll_policy(
    policy: Callable[[float], Optional[float]],
    horizon: float,
    max_periods: int = 100_000,
) -> FloatArray:
    """Materialize an elapsed-deterministic policy as a period array.

    Calls ``policy(elapsed)`` with the running elapsed time, exactly as an
    uninterrupted episode would, until the policy declines (``None``,
    non-positive, or ``StopIteration``), ``elapsed`` reaches ``horizon``, or
    ``max_periods`` periods have been emitted.  Periods starting at or past
    ``horizon`` cannot bank work for any episode reclaimed by ``horizon``, so
    stopping there loses nothing.

    The unrolling is valid only for policies whose proposal depends *solely*
    on ``elapsed`` (the contract :func:`estimate_policy_work` already
    assumes when it replays one callable across episodes); policies with
    per-episode randomness or hidden mutable state must use the scalar
    engine.
    """
    if horizon < 0 or not np.isfinite(horizon):
        raise SimulationError(f"horizon must be finite and nonnegative, got {horizon}")
    periods: list[float] = []
    elapsed = 0.0
    while elapsed < horizon and len(periods) < max_periods:
        try:
            t = policy(elapsed)
        except StopIteration:
            break
        if t is None or t <= 0:
            break
        periods.append(float(t))
        elapsed += float(t)
    return np.asarray(periods, dtype=float)


def simulate_policy_episodes_vectorized(
    policy: Callable[[float], Optional[float]],
    p: LifeFunction,
    c: float,
    n: int,
    rng: Optional[np.random.Generator] = None,
    max_periods: int = 100_000,
    reclaim_times: Optional[FloatArray] = None,
) -> EpisodeBatch:
    """Batch-simulate an elapsed-deterministic policy.

    Unrolls the policy once (out to the latest sampled reclaim time), then
    scores all ``n`` episodes against the unrolled period sequence with the
    same searchsorted/cumulative-sum step as the schedule engine.  Matches
    :func:`repro.simulation.scalar.simulate_policy_episodes_scalar`
    bit-for-bit for policies that are pure functions of elapsed time.
    """
    if n < 1:
        raise ValueError(f"need at least one episode, got n={n}")
    if reclaim_times is None:
        if rng is None:
            raise ValueError("provide either rng or reclaim_times")
        reclaim_times = p.sample_reclaim_times(rng, n)
    reclaim = np.asarray(reclaim_times, dtype=float)
    if reclaim.size != n:
        raise ValueError(f"reclaim_times has {reclaim.size} entries, expected {n}")

    periods = unroll_policy(policy, float(reclaim.max()), max_periods=max_periods)
    if periods.size == 0:
        zeros = np.zeros(n)
        return EpisodeBatch(
            reclaim_times=reclaim,
            work=zeros,
            periods_completed=np.zeros(n, dtype=np.intp),
        )
    boundaries = np.cumsum(periods)
    k = np.searchsorted(boundaries, reclaim, side="left")
    cumulative = np.concatenate(([0.0], np.cumsum(np.maximum(0.0, periods - c))))
    return EpisodeBatch(reclaim_times=reclaim, work=cumulative[k], periods_completed=k)
