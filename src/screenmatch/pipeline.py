"""Combined screening, the paper's training-set screen: learn a threshold
policy on a training sample, then run the online greedy pass over the
policy-filtered stream.

The policy takes per-property top-m thresholds, with m the exact,
distribution-free ``coverage_rank`` of the whole failure budget delta, so
that with probability at least 1 - delta the filtered stream still holds
the full-stream optimum.  The pass over the survivors has no warmup: it
keeps every item of their optimum, so coverage is its only failure source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConfigError, ConstraintSpec, Instance, require_valid, validate_instance
from .greedy import Arrivals, screen_entries
from .matching import Solution, _reaches_optimum, _solve
from .thresholds import (
    ThresholdsPolicy,
    _check_c0,
    coverage_rank,
    learn_topm_thresholds,
    screen_with_policy,
)

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline"]


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """The failure budget, which ``run_pipeline`` spends whole on coverage.

    ``c0`` shapes nothing: the rank is exact, so no slack is fitted.  It is
    still accepted and checked (nonnegative and finite), because callers
    that predate the exact rank pass it.
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

    With m = ``coverage_rank(train.n, stream.n, k, d, cfg.delta)``, the
    policy takes each property's m-th largest training value, and the pass
    over its survivors has warmup 0.  When train and stream are drawn
    i.i.d. from one distribution, the result is optimal with probability
    at least 1 - ``cfg.delta``:

    1. Per property p, score each item by its value at p, or -1 if it
       lacks p.  The training and stream scores are exchangeable, so with
       ties broken at random the number of stream scores among the top
       k + m - 1 is Hyp(n_train + n_stream, n_stream, k + m - 1), whatever
       the distribution (Gumbel and von Schelling 1950; Wilks 1941).  When
       at least k of them are the stream's, at most m - 1 are training
       scores, so the stream's top k by (value, id) all clear the m-th
       largest training value.  A union over the d properties bounds the
       chance that some property misses by the rank's budget.
    2. Ties only add survivors: a value equal to the threshold clears it
       (``>=``), so the survivors hold those of every random tie order.
    3. When every property's top k by (value, id) survives, the pool lemma
       (``matching``) puts the full optimum among the survivors, and it is
       their optimum too.
    4. With warmup 0, the pass keeps every item of the survivors' optimum:
       by prefix consistency, an item in the optimum of a set is in the
       optimum of each subset that holds it, here the items kept before it
       plus itself.  So the pass ends on the survivors' optimum.
    5. A property with fewer than m owners in training gets threshold 0,
       so every owner survives, and step 1 needs a real m-th value only
       where one exists.
    """
    require_valid(validate_instance(stream, spec), "stream")

    m = coverage_rank(train.n, stream.n, spec.k, spec.d, cfg.delta)
    policy = learn_topm_thresholds(train, spec, [m] * spec.d)
    survivors, _ = screen_with_policy(policy, stream)
    entries = Arrivals(survivors.ids, survivors.columns(spec.d))
    kept, final = screen_entries(entries, spec, 0)

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
