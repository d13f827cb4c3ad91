"""Monte-Carlo estimation of expected work, with confidence intervals.

Validates the analytic eq. (2.1) — experiment EV-MC — and evaluates policies
(progressive, baselines) whose expected work has no closed form.

Both estimators accept an ``engine`` argument selecting the batch simulation
backend: ``"vectorized"`` (NumPy batch engine, the fast default for
schedules) or ``"scalar"`` (the per-episode reference loop).  Under the
shared seed contract — one ``p.sample_reclaim_times(rng, batch)`` call per
batch, episodes in draw order — the engines produce *identical* episode
outcomes for an identical generator state, so switching engines never
changes an estimate, only its wall-clock cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from ..core.life_functions import LifeFunction
from ..core.schedule import Schedule
from .episode import ENGINES, simulate_episodes

__all__ = ["MCEstimate", "estimate_expected_work", "estimate_policy_work"]

#: Two-sided 95% normal quantile.
_Z95 = 1.959963984540054


def _z_quantile(confidence: float) -> float:
    """Two-sided normal quantile for a given coverage probability."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo mean with its sampling uncertainty."""

    mean: float
    stderr: float
    n: int

    def ci(self, confidence: float = 0.95) -> tuple[float, float]:
        """Two-sided normal confidence interval at the given coverage.

        ``confidence`` is the coverage probability (default 0.95); e.g.
        ``ci(0.99)`` widens the half-width from 1.96 to 2.58 standard errors.
        """
        half = _z_quantile(confidence) * self.stderr
        return (self.mean - half, self.mean + half)

    @property
    def ci95(self) -> tuple[float, float]:
        """Two-sided 95% normal confidence interval for the mean."""
        return self.ci(0.95)

    def consistent_with(self, value: float, z: float = 4.0) -> bool:
        """Whether ``value`` lies within ``z`` standard errors of the mean.

        ``z = 4`` keeps the false-failure rate of a validation suite with
        hundreds of checks comfortably below one in ten thousand per check.
        """
        if self.stderr == 0.0:
            return math.isclose(self.mean, value, rel_tol=1e-12, abs_tol=1e-12)
        return abs(self.mean - value) <= z * self.stderr


def estimate_expected_work(
    schedule: Schedule,
    p: LifeFunction,
    c: float,
    n: int = 100_000,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 1_000_000,
    engine: str = "vectorized",
) -> MCEstimate:
    """Estimate ``E(S; p)`` by simulating ``n`` independent episodes.

    Batched so arbitrarily large ``n`` runs in bounded memory; the estimator
    is the plain sample mean (unbiased), with the usual ``s/sqrt(n)`` error.

    RNG contract: ``ceil(n / batch_size)`` calls of
    ``p.sample_reclaim_times(rng, batch)``, in order — independent of the
    engine, so the estimate is a function of ``(seed, n, batch_size)`` only.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        take = min(batch_size, n - done)
        batch = simulate_episodes(schedule, p, c, take, rng, engine=engine)
        total += float(batch.work.sum())
        total_sq += float(np.dot(batch.work, batch.work))
        done += take
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    stderr = math.sqrt(var / n)
    return MCEstimate(mean=mean, stderr=stderr, n=n)


def estimate_policy_work(
    policy: Callable[[float], float],
    p: LifeFunction,
    c: float,
    n: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    max_periods: int = 100_000,
    engine: str = "scalar",
) -> MCEstimate:
    """Estimate expected work of an *online* policy.

    ``policy(elapsed)`` returns the next period length proposed after
    surviving to ``elapsed`` (or ``None`` / a non-positive value / raising
    ``StopIteration`` to stop).  The estimator replays one callable across
    all ``n`` episodes, so the policy must be a deterministic function of
    ``elapsed`` for the estimate to mean anything.

    The default ``"scalar"`` engine simulates episodes one at a time and
    tolerates policies with benign statefulness (e.g. call counters).  The
    ``"vectorized"`` engine unrolls the policy *once* (out to the latest
    sampled reclaim time) and scores all episodes in NumPy — pick it for
    large ``n`` with elapsed-deterministic policies; it matches the scalar
    engine bit-for-bit for such policies.

    RNG contract: one ``p.sample_reclaim_times(rng, n)`` call, episodes in
    draw order — identical for every engine.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if engine == "scalar":
        from .scalar import simulate_policy_episodes_scalar as impl
    elif engine == "vectorized":
        from .vectorized import simulate_policy_episodes_vectorized as impl
    else:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    batch = impl(policy, p, c, n, rng, max_periods=max_periods)
    works = batch.work
    mean = float(works.mean())
    stderr = float(works.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean=mean, stderr=stderr, n=n)
