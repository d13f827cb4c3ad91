"""Core library: the paper's primary contribution.

Life functions (Section 2.1), schedules and expected work (eq. 2.1), the
guideline recurrence (Corollary 3.1), ``t_0`` bounds (Theorems 3.2/3.3),
exact optima from [3] (Section 4), a numeric ground-truth optimizer,
greedy/progressive schedulers (Section 6), and the Section 5 structural
analysis tools.
"""

from .batch_recurrence import (
    BatchRecurrenceResult,
    batch_expected_work,
    generate_schedules_batch,
)
from .hetero_recurrence import (
    HETERO_FAMILIES,
    HeteroBatchResult,
    generate_schedules_hetero,
)
from .exact import (
    ExactResult,
    geometric_decreasing_optimal_period,
    geometric_decreasing_optimal_schedule,
    geometric_decreasing_optimal_work,
    geometric_increasing_optimal_schedule,
    uniform_optimal_num_periods,
    uniform_optimal_schedule,
    uniform_t0_asymptotic,
)
from .existence import (
    admissibility_margin,
    satisfies_corollary_32,
    supremum_probe,
    tail_admissibility_margin,
)
from .greedy import greedy_next_period, greedy_schedule
from .guidelines import GuidelineResult, guideline_schedule
from .life_functions import (
    ConditionalLifeFunction,
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    GompertzLife,
    LifeFunction,
    LogLogisticLife,
    MixtureLife,
    ParetoLife,
    PolynomialRisk,
    Shape,
    TimeScaledLife,
    UniformRisk,
    WeibullLife,
    detect_shape,
    is_concave,
    is_convex,
)
from .optimizer import (
    OptimizationResult,
    expected_work_gradient,
    optimize_fixed_m,
    optimize_schedule,
    optimize_t0_via_recurrence,
)
from .plancache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    PlanCache,
    default_cache_dir,
    default_plan_cache,
    plan_key,
    reset_default_plan_cache,
)
from .perturbation import (
    LocalOptimalityReport,
    is_locally_optimal,
    perturbation_gain,
    perturbation_margins,
    perturbed,
    shift_gain,
    shifted,
)
from .productive import is_productive, make_productive
from .progressive import ProgressiveScheduler, progressive_schedule
from .recurrence import (
    RecurrenceOutcome,
    Termination,
    generate_schedule,
    next_period,
    recurrence_residuals,
    satisfies_recurrence,
)
from .schedule import Schedule, expected_work, truncate_infinite
from .serving import (
    BatchingPlanServer,
    CircuitBreaker,
    PlanServer,
    ServedPlan,
    TierChaos,
    TierStats,
)
from .sharding import (
    ShardConfig,
    ShardedPlanServer,
    ShardWorker,
    build_shard_server,
    shard_of,
    shard_of_query,
    split_batch,
)
from .structure import (
    StructureReport,
    period_decrements,
    satisfies_concave_decrements,
    satisfies_convex_decrements,
    verify_structure,
)
from .discrete_opt import DiscreteOptimum, solve_discrete_optimal
from .distribution import WorkDistribution, optimize_risk_averse, work_distribution
from .t0_bounds import (
    geometric_decreasing_bracket,
    geometric_increasing_window,
    lower_bound_t0,
    max_periods_bound,
    polynomial_bracket,
    t0_bracket,
    t0_lower_bound_cor54,
    t0_lower_bound_cor55,
    uniform_bracket,
    upper_bound_t0,
)
from .uniqueness import (
    T0Landscape,
    count_expected_work_peaks,
    is_unique_optimum_numerically,
    scan_t0_landscape,
)
from .worstcase import (
    CompetitiveResult,
    competitive_ratio,
    guaranteed_work,
    optimize_competitive_schedule,
)

__all__ = [
    # life functions
    "LifeFunction", "ConditionalLifeFunction", "Shape",
    "UniformRisk", "PolynomialRisk", "GeometricDecreasingLifespan",
    "GeometricIncreasingRisk", "WeibullLife", "ParetoLife",
    "GompertzLife", "LogLogisticLife",
    "MixtureLife", "TimeScaledLife",
    "detect_shape", "is_concave", "is_convex",
    # schedules
    "Schedule", "expected_work", "truncate_infinite",
    "is_productive", "make_productive",
    # recurrence and guidelines
    "generate_schedule", "next_period", "recurrence_residuals",
    "satisfies_recurrence", "RecurrenceOutcome", "Termination",
    "BatchRecurrenceResult", "generate_schedules_batch", "batch_expected_work",
    "HeteroBatchResult", "generate_schedules_hetero", "HETERO_FAMILIES",
    "guideline_schedule", "GuidelineResult",
    # t0 bounds
    "t0_bracket", "lower_bound_t0", "upper_bound_t0",
    "uniform_bracket", "polynomial_bracket", "geometric_decreasing_bracket",
    "geometric_increasing_window",
    "max_periods_bound", "t0_lower_bound_cor54", "t0_lower_bound_cor55",
    # exact optima
    "ExactResult", "uniform_optimal_schedule", "uniform_optimal_num_periods",
    "uniform_t0_asymptotic", "geometric_decreasing_optimal_period",
    "geometric_decreasing_optimal_work", "geometric_decreasing_optimal_schedule",
    "geometric_increasing_optimal_schedule",
    # optimizer
    "OptimizationResult", "optimize_fixed_m", "optimize_schedule",
    "optimize_t0_via_recurrence", "expected_work_gradient",
    # plan cache
    "PlanCache", "CacheStats", "plan_key", "CACHE_SCHEMA_VERSION",
    "default_plan_cache", "default_cache_dir", "reset_default_plan_cache",
    # resilient serving chain
    "PlanServer", "ServedPlan", "CircuitBreaker", "TierStats", "TierChaos",
    "BatchingPlanServer",
    # sharded multi-worker serving tier
    "ShardedPlanServer", "ShardWorker", "ShardConfig", "build_shard_server",
    "shard_of", "shard_of_query", "split_batch",
    # greedy / progressive
    "greedy_schedule", "greedy_next_period",
    "ProgressiveScheduler", "progressive_schedule",
    # perturbation / structure / existence
    "shifted", "perturbed", "shift_gain", "perturbation_gain",
    "perturbation_margins", "is_locally_optimal", "LocalOptimalityReport",
    "period_decrements", "satisfies_concave_decrements",
    "satisfies_convex_decrements", "verify_structure", "StructureReport",
    "admissibility_margin", "satisfies_corollary_32",
    "tail_admissibility_margin", "supremum_probe",
    # worst-case sequel / discrete DP / uniqueness explorers
    "guaranteed_work", "competitive_ratio", "CompetitiveResult",
    "optimize_competitive_schedule",
    "DiscreteOptimum", "solve_discrete_optimal",
    "WorkDistribution", "work_distribution", "optimize_risk_averse",
    "T0Landscape", "scan_t0_landscape", "count_expected_work_peaks",
    "is_unique_optimum_numerically",
]
