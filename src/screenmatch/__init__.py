"""Online item screening under exact per-property cardinality constraints.

Items arrive one at a time from an i.i.d. source and must be retained or
discarded irrevocably; the goal is to keep few items while the best feasible
selection among the retained ones matches the full-stream optimum.
"""

from .core import (
    ConfigError,
    ConstraintSpec,
    DistributionSpec,
    InputError,
    Instance,
    Item,
    Violation,
    derive_seed,
    is_dummy_id,
    read_constraint_spec,
    read_distribution_spec,
    read_instance,
    sample_instance,
    validate_instance,
    validate_items,
    write_constraint_spec,
    write_distribution_spec,
    write_instance,
)
from .matching import (
    Solution,
    exact_solution_value,
    optimal_matching,
)
from .greedy import GreedyResult, TraceStep, greedy_screen, warmup_length
from .thresholds import (
    ABOVE,
    NetSizeError,
    RetentionStats,
    ThresholdsPolicy,
    coverage_rank,
    is_above,
    learn_optimal_thresholds,
    learn_topm_thresholds,
    quantile_policy_net,
    read_policy,
    screen_with_policy,
    write_policy,
)
from .pipeline import PipelineResult, run_pipeline
from .experiments import (
    Aggregates,
    ConcentrationStats,
    ConvergenceStats,
    ExperimentConfig,
    TrialRecord,
    TrialStats,
    concentration_experiment,
    convergence_experiment,
    run_trials,
)

__version__ = "0.1.0"

__all__ = [
    "ABOVE",
    "Aggregates",
    "ConcentrationStats",
    "ConfigError",
    "ConstraintSpec",
    "ConvergenceStats",
    "DistributionSpec",
    "ExperimentConfig",
    "GreedyResult",
    "InputError",
    "Instance",
    "Item",
    "NetSizeError",
    "PipelineResult",
    "RetentionStats",
    "Solution",
    "ThresholdsPolicy",
    "TraceStep",
    "TrialRecord",
    "TrialStats",
    "Violation",
    "concentration_experiment",
    "convergence_experiment",
    "coverage_rank",
    "derive_seed",
    "exact_solution_value",
    "greedy_screen",
    "is_above",
    "is_dummy_id",
    "learn_optimal_thresholds",
    "learn_topm_thresholds",
    "optimal_matching",
    "quantile_policy_net",
    "read_constraint_spec",
    "read_distribution_spec",
    "read_instance",
    "read_policy",
    "run_pipeline",
    "run_trials",
    "sample_instance",
    "screen_with_policy",
    "validate_instance",
    "validate_items",
    "warmup_length",
    "write_constraint_spec",
    "write_distribution_spec",
    "write_instance",
    "write_policy",
]
