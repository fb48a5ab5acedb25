"""Combined screening, the paper's training-set screen: learn a threshold
policy on a training sample, then run the online greedy pass over the
policy-filtered stream.

The policy takes per-property top-(k + slack) thresholds, where the slack
grows like sqrt(k log ...) so that with probability 1 - delta the filtered
stream still contains a full-stream optimum.

The failure budget delta is split across three sources (threshold
coverage, retention-count convergence, greedy warmup); the warmup is
counted in original stream positions, so filtering never shortens it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConfigError, ConstraintSpec, Instance, require_valid, validate_instance
from .greedy import Arrivals, screen_entries, warmup_length
from .matching import Solution, _reaches_optimum, _solve
from .thresholds import (
    ThresholdsPolicy,
    _check_c0,
    is_above,
    learn_topm_thresholds,
    retention_slack,
    screen_with_policy,
)

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline"]


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Failure budget, slack constant, and the delta split.

    ``delta_split`` weights the budget across (threshold coverage,
    convergence, greedy warmup); it must be nonnegative and sum to 1, and
    the convergence weight, which the slack spends, must be positive.  The
    coverage weight is checked but not yet spent: no learner takes a
    coverage budget.
    """

    delta: float
    c0: float = 1.0
    delta_split: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta!r}")
        _check_c0(self.c0)
        # written so that a NaN weight fails both tests
        if len(self.delta_split) != 3 or not all(w >= 0.0 for w in self.delta_split):
            raise ConfigError(f"delta_split needs three nonnegative weights, got {self.delta_split}")
        if not abs(sum(self.delta_split) - 1.0) <= 1e-12:
            raise ConfigError(f"delta_split must sum to 1, got {self.delta_split}")
        # the slack's budget delta * weight, which a subnormal weight can underflow
        if not self.delta * self.delta_split[1] > 0.0:
            raise ConfigError(f"delta_split leaves the convergence no budget, got {self.delta_split}")


@dataclass(frozen=True, slots=True)
class PipelineResult:
    policy: ThresholdsPolicy
    retained_after_policy: int
    retained_final: int
    final_solution: Solution
    optimal_vs_fullstream: bool
    value_gap: float

    def to_json_obj(self) -> dict:
        return {
            "policy": {"t": ["ABOVE" if is_above(x) else x for x in self.policy.t]},
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
    """
    require_valid(validate_instance(stream, spec), "stream")

    n, k = stream.n, spec.k
    _, w_conv, w_warm = cfg.delta_split
    slack = retention_slack(k, spec.d, max(n, k + 1), cfg.delta * w_conv, cfg.c0)
    policy = learn_topm_thresholds(train, spec, [k + slack] * spec.d)

    warmup = warmup_length(n, k, cfg.delta * w_warm)
    survivors, _ = screen_with_policy(policy, stream)
    entries = Arrivals(survivors.ids, survivors.columns(spec.d))
    kept, final, _ = screen_entries(entries, spec, warmup)

    full = _solve(stream, spec)
    return PipelineResult(
        policy=policy,
        retained_after_policy=survivors.n,
        retained_final=len(kept),
        final_solution=final,
        optimal_vs_fullstream=_reaches_optimum(stream, final, full),
        value_gap=full.value - final.value,
    )
