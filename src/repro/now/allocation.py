"""Allocating a cycle-stealing master across multiple workstations.

The paper schedules a *single* episode; a NOW master faces many borrowable
workstations at once, each with its own risk profile, and (realistically) a
budget on how many it can feed — each borrowed station costs the master
dispatch attention, and each period costs ``c`` of *master* time too.

This module provides the analytic layer for that decision:

* :func:`episode_value` — the expected work one episode on a station is worth
  (the paper's ``E(S*; p)`` with the guideline schedule);
* :func:`steal_rate` — long-run expected work per unit wall-clock from a
  station, combining episode value with the owner's presence/absence renewal
  cycle;
* :func:`select_stations` — choose the best ``k`` stations by rate (the
  master's bandwidth budget), a provably optimal selection because stations
  contribute independently and additively in this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.guidelines import guideline_schedule
from ..core.life_functions import LifeFunction
from ..exceptions import CycleStealingError, SimulationError
from ..simulation.monte_carlo import MCEstimate, estimate_expected_work

__all__ = [
    "StationProfile",
    "episode_value",
    "estimate_episode_value",
    "estimate_steal_rate",
    "steal_rate",
    "select_stations",
]


@dataclass(frozen=True)
class StationProfile:
    """What the master knows about one borrowable workstation."""

    ws_id: int
    #: Risk profile of that owner's absences.
    life: LifeFunction
    #: Mean presence (unavailable) interval between opportunities.
    mean_present: float
    #: Relative execution speed (task time divides by this).
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_present <= 0:
            raise SimulationError(
                f"station {self.ws_id}: mean_present must be positive"
            )
        if self.speed <= 0:
            raise SimulationError(f"station {self.ws_id}: speed must be positive")


def episode_value(profile: StationProfile, c: float) -> float:
    """Expected work (in task-time units) one episode on this station banks.

    Uses the guideline schedule; the station's ``speed`` scales the banked
    work (a period of wall-clock length ``t`` completes ``(t - c) * speed``
    task units).
    """
    try:
        result = guideline_schedule(profile.life, c, grid=65)
    except CycleStealingError:
        return 0.0
    return result.expected_work * profile.speed


def estimate_episode_value(
    profile: StationProfile,
    c: float,
    n: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> MCEstimate:
    """Monte-Carlo counterpart of :func:`episode_value`.

    Simulates ``n`` draconian episodes of the station's guideline schedule
    against its life function and scales by the station's speed.  Stations
    the guideline scheduler rejects are worth exactly 0, with zero
    uncertainty.

    RNG contract: delegates to
    :func:`repro.simulation.estimate_expected_work` — one
    ``sample_reclaim_times`` call per internal batch.
    """
    try:
        result = guideline_schedule(profile.life, c, grid=65)
    except CycleStealingError:
        return MCEstimate(mean=0.0, stderr=0.0, n=n)
    est = estimate_expected_work(result.schedule, profile.life, c, n=n, rng=rng)
    return MCEstimate(
        mean=est.mean * profile.speed, stderr=est.stderr * profile.speed, n=est.n
    )


def estimate_steal_rate(
    profile: StationProfile,
    c: float,
    n: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> MCEstimate:
    """Monte-Carlo counterpart of :func:`steal_rate` (renewal-reward form).

    The presence/absence cycle length is analytic, so only the episode value
    carries sampling error; mean and stderr both divide by the cycle.
    """
    mean_absent = profile.life.expected_lifetime()
    cycle = profile.mean_present + mean_absent
    est = estimate_episode_value(profile, c, n=n, rng=rng)
    return MCEstimate(mean=est.mean / cycle, stderr=est.stderr / cycle, n=est.n)


def steal_rate(profile: StationProfile, c: float) -> float:
    """Long-run expected task-work per unit wall-clock from this station.

    The owner alternates presence (mean ``mean_present``) and absence (mean
    = the life function's expected lifetime); each absence is one episode
    worth :func:`episode_value`.  By renewal-reward, the rate is

        episode_value / (mean_present + mean_absent).
    """
    mean_absent = profile.life.expected_lifetime()
    cycle = profile.mean_present + mean_absent
    return episode_value(profile, c) / cycle


def select_stations(
    profiles: list[StationProfile], c: float, budget: int
) -> list[tuple[StationProfile, float]]:
    """The master's pick: the ``budget`` stations with the highest steal rate.

    Returns ``(profile, rate)`` pairs, best first.  Optimal for additive
    independent stations: total long-run work is the sum of selected rates,
    so the greedy top-``k`` maximizes it.
    """
    if budget < 1:
        raise SimulationError(f"budget must be at least 1, got {budget}")
    rated = [(prof, steal_rate(prof, c)) for prof in profiles]
    rated.sort(key=lambda pair: pair[1], reverse=True)
    return rated[:budget]
