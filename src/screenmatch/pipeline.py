"""Combined screening, the paper's training-set screen: learn a threshold
policy on a training sample, then run the online greedy pass over the
policy-filtered stream.

The policy takes per-property top-(k + slack) thresholds, where the slack
grows like sqrt(k log ...) so that with probability 1 - delta the filtered
stream still contains a full-stream optimum.

The failure budget delta is split in thirds across three sources
(threshold coverage, retention-count convergence, greedy warmup); the
warmup is counted in original stream positions, so filtering never
shortens it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConfigError, ConstraintSpec, Instance, require_valid, validate_instance
from .greedy import Arrivals, screen_entries, warmup_length
from .matching import Solution, _reaches_optimum, _solve
from .thresholds import (
    ThresholdsPolicy,
    _check_c0,
    learn_topm_thresholds,
    retention_slack,
    screen_with_policy,
)

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline"]


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Failure budget and slack constant.

    ``run_pipeline`` gives the slack's convergence and the greedy warmup a
    third of ``delta`` each.  The coverage third is reserved: no learner
    takes a coverage budget, so none spends it yet.
    """

    delta: float
    c0: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta!r}")
        _check_c0(self.c0)


@dataclass(frozen=True, slots=True)
class PipelineResult:
    policy: ThresholdsPolicy
    retained_after_policy: int
    retained_final: int
    final_solution: Solution
    optimal_vs_fullstream: bool
    value_gap: float
    opt_value: float  # as solved: final value + value_gap can round off it

    def to_json_obj(self) -> dict:
        return {
            "policy": self.policy.to_json_obj(),
            "retained_after_policy": self.retained_after_policy,
            "retained_final": self.retained_final,
            "final_solution": self.final_solution.to_json_obj(),
            "optimal_vs_fullstream": self.optimal_vs_fullstream,
            "value_gap": self.value_gap,
        }


def run_pipeline(
    train: Instance,
    stream: Instance,
    spec: ConstraintSpec,
    cfg: PipelineConfig,
) -> PipelineResult:
    """Learn on ``train``, screen ``stream``, and compare against the
    full-stream optimum (diagnostic, computed offline).

    ``stream`` is checked here, once: the full-stream solve skips the
    check.  ``train`` is checked by the learner.  A trial's sampled train
    and stream are valid by construction, so neither check costs it a pass.

    The slack and the warmup each spend a third of ``cfg.delta``; the
    coverage third is reserved (see ``PipelineConfig``).
    """
    require_valid(validate_instance(stream, spec), "stream")

    n, k = stream.n, spec.k
    # delta * (1 / 3), not delta / 3: the two can differ in the last bit
    third = cfg.delta * (1 / 3)
    slack = retention_slack(k, spec.d, max(n, k + 1), third, cfg.c0)
    policy = learn_topm_thresholds(train, spec, [k + slack] * spec.d)

    warmup = warmup_length(n, k, third)
    survivors, _ = screen_with_policy(policy, stream)
    entries = Arrivals(survivors.ids, survivors.columns(spec.d))
    kept, final = screen_entries(entries, spec, warmup)

    full = _solve(stream, spec)
    return PipelineResult(
        policy=policy,
        retained_after_policy=survivors.n,
        retained_final=len(kept),
        final_solution=final,
        optimal_vs_fullstream=_reaches_optimum(stream, final, full),
        value_gap=full.value - final.value,
        opt_value=full.value,
    )
