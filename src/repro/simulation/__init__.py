"""Episode-level simulation: Monte-Carlo validation of the model semantics.

Exports batched episode simulation (Section 2.1 accounting) on the NumPy
batch engine (:mod:`repro.simulation.vectorized`), the per-episode reference
loops it is checked against (:mod:`repro.simulation.scalar`, called by name),
Monte-Carlo expected-work estimation with confidence intervals, the
differential-testing harness that keeps the fast engine honest
(:mod:`repro.simulation.testing`), and the discrete task-grid quantization
analysis of Section 6's open question.
"""

from .discrete import DiscretizationReport, discretization_report, discretize_schedule
from .episode import (
    EpisodeBatch,
    completed_periods,
    realized_work,
    simulate_episodes,
)
from .monte_carlo import MCEstimate, estimate_expected_work, estimate_policy_work
from .scalar import simulate_episodes_scalar, simulate_policy_episodes_scalar
from .vectorized import (
    simulate_episodes_vectorized,
    simulate_policy_episodes_vectorized,
    unroll_policy,
)

__all__ = [
    "EpisodeBatch",
    "completed_periods",
    "realized_work",
    "simulate_episodes",
    "simulate_episodes_scalar",
    "simulate_episodes_vectorized",
    "simulate_policy_episodes_scalar",
    "simulate_policy_episodes_vectorized",
    "unroll_policy",
    "MCEstimate",
    "estimate_expected_work",
    "estimate_policy_work",
    "DiscretizationReport",
    "discretization_report",
    "discretize_schedule",
]
