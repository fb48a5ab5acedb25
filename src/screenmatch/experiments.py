"""Monte Carlo harness: retention scaling, optimal-value concentration, and
uniform convergence of policy statistics over a policy net.

Every trial derives its own sub-seed from (root seed, purpose label, trial
index), so results are reproducible bit-for-bit and independent of the
worker count.  ``run_trials`` and ``concentration_experiment`` deal their
trials out as one contiguous block per worker and merge the per-trial
results in index order, so block boundaries never show in the output.
``convergence_experiment`` sums its calibration statistics per block, so
it keeps blocks of a fixed size.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import IO, Sequence

import numpy as np

from .core import (
    ConfigError,
    ConstraintSpec,
    DistributionSpec,
    derive_seed,
    sample_instance,
)
from .greedy import greedy_screen, warmup_length
from .matching import _reaches_optimum, _solve, optimal_matching
from .pipeline import PipelineConfig, run_pipeline
from .thresholds import ThresholdsPolicy, screen_with_policy

__all__ = [
    "ALGORITHMS",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "TrialRecord",
    "Aggregates",
    "TrialStats",
    "ConcentrationStats",
    "ConvergenceStats",
    "run_trials",
    "concentration_experiment",
    "convergence_experiment",
    "lower_bound_distribution",
    "trial_stats_row",
    "convergence_row",
    "write_aggregates_csv",
    "write_records_jsonl",
]

ALGORITHMS = ("greedy", "pipeline-value-approx", "pipeline-exact-opt", "policy-fixed")

CSV_COLUMNS = (
    "scenario",
    "n",
    "k",
    "d",
    "delta",
    "trials",
    "mean_retained",
    "std_retained",
    "success_rate",
    "mean_opt",
    "std_opt",
    "max_dev_count",
    "max_dev_value",
)

DELTA_PRIME_GRID = (0.2, 0.1, 0.05, 0.01)

# convergence sums its statistics per block, so its floats depend on the
# block boundaries: they stay fixed whatever the pool size
_BLOCK = 256


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    scenario: str
    dist: DistributionSpec
    spec: ConstraintSpec
    n: int
    delta: float
    trials: int
    seed: int
    algorithm: str = "greedy"
    c0: float = 1.0
    policy: ThresholdsPolicy | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.n, int) or self.n < self.spec.k:
            raise ConfigError(f"n must be an integer >= k={self.spec.k}, got {self.n!r}")
        if not (0.0 <= self.delta <= 1.0):
            raise ConfigError(f"delta must lie in [0, 1], got {self.delta!r}")
        if self.algorithm.startswith("pipeline") and not (0.0 < self.delta < 1.0):
            raise ConfigError(f"{self.algorithm} needs delta in (0, 1), got {self.delta!r}")
        if self.algorithm == "policy-fixed":
            if self.policy is None:
                raise ConfigError("policy-fixed needs an explicit policy")
            if self.policy.d != self.spec.d:
                raise ConfigError(
                    f"policy has {self.policy.d} thresholds but spec has {self.spec.d} properties"
                )
        elif self.policy is not None:
            raise ConfigError(f"algorithm {self.algorithm!r} takes no fixed policy")
        if self.dist.d != self.spec.d:
            raise ConfigError(
                f"distribution has d={self.dist.d} but spec has {self.spec.d} properties"
            )


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial: int
    retained: int
    value: float
    opt_value: float
    success: bool
    retained_after_policy: int | None = None
    value_gap: float | None = None

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class Aggregates:
    mean_retained: float
    std_retained: float
    min_retained: int
    max_retained: int
    success_rate: float
    mean_opt: float
    std_opt: float


@dataclass(frozen=True, slots=True)
class TrialStats:
    records: tuple[TrialRecord, ...]
    aggregates: Aggregates


def _sample_std(a: np.ndarray) -> float:
    return float(a.std(ddof=1)) if a.size > 1 else 0.0


def _one_trial(cfg: ExperimentConfig, t: int) -> TrialRecord:
    stream_seed = derive_seed(cfg.seed, "stream", t)
    if cfg.algorithm == "greedy":
        inst = sample_instance(cfg.dist, cfg.n, stream_seed)
        warmup = warmup_length(cfg.n, cfg.spec.k, cfg.delta)
        res = greedy_screen(inst, cfg.spec, warmup)
        # greedy_screen has checked the stream
        full = _solve(inst, cfg.spec)
        success = _reaches_optimum(inst, res.final_solution, full)
        return TrialRecord(t, len(res.retained_ids), res.final_solution.value, full.value, success)

    if cfg.algorithm.startswith("pipeline"):
        train = sample_instance(cfg.dist, cfg.n, derive_seed(cfg.seed, "train", t))
        stream = sample_instance(cfg.dist, cfg.n, stream_seed)
        mode = cfg.algorithm.removeprefix("pipeline-")
        result = run_pipeline(train, stream, cfg.spec, PipelineConfig(mode, cfg.delta, cfg.c0))
        return TrialRecord(
            t,
            result.retained_final,
            result.final_solution.value,
            result.final_solution.value + result.value_gap,
            result.optimal_vs_fullstream,
            retained_after_policy=result.retained_after_policy,
            value_gap=result.value_gap,
        )

    inst = sample_instance(cfg.dist, cfg.n, stream_seed)
    retained, stats = screen_with_policy(cfg.policy, inst)
    # the full-stream solve checks the stream, and so the retained subset too
    full = optimal_matching(inst, cfg.spec)
    sol = _solve(retained, cfg.spec)
    success = _reaches_optimum(inst, sol, full)
    return TrialRecord(t, stats.total, sol.value, full.value, success)


def _trial_block(args: tuple[ExperimentConfig, int, int]) -> list[TrialRecord]:
    cfg, start, stop = args
    return [_one_trial(cfg, t) for t in range(start, stop)]


def _check_workers(workers: int) -> None:
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")


def _blocks(total: int, size: int) -> list[tuple[int, int]]:
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def _split(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous blocks of ceil(total / workers) trials, one per worker."""
    return _blocks(total, -(-total // workers))


def _map_blocks(fn, args_list: list, workers: int) -> list:
    if workers == 1 or len(args_list) == 1:
        return [fn(a) for a in args_list]
    # fork starts every worker at once, so never ask for more than there are blocks
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as pool:
        return list(pool.map(fn, args_list))


def run_trials(cfg: ExperimentConfig, workers: int = 1) -> TrialStats:
    """Run ``cfg.trials`` independent trials and aggregate.

    ``workers`` (at least 1) only controls process parallelism; records
    and aggregates are identical for any worker count.
    """
    _check_workers(workers)
    args = [(cfg, s, e) for s, e in _split(cfg.trials, workers)]
    records: list[TrialRecord] = []
    for block in _map_blocks(_trial_block, args, workers):
        records.extend(block)
    retained = np.array([r.retained for r in records], dtype=float)
    opts = np.array([r.opt_value for r in records], dtype=float)
    agg = Aggregates(
        mean_retained=float(retained.mean()),
        std_retained=_sample_std(retained),
        min_retained=int(retained.min()),
        max_retained=int(retained.max()),
        success_rate=sum(r.success for r in records) / len(records),
        mean_opt=float(opts.mean()),
        std_opt=_sample_std(opts),
    )
    return TrialStats(tuple(records), agg)


# ---------------------------------------------------------------------------
# concentration of the offline optimum


@dataclass(frozen=True, slots=True)
class TailRow:
    delta_prime: float
    alpha: float
    exceed_rate: float
    bound: float


@dataclass(frozen=True, slots=True)
class ConcentrationStats:
    trials: int
    k: int
    mean: float
    std: float
    tail: tuple[TailRow, ...]

    def to_json_obj(self) -> dict:
        return asdict(self)


def _opt_block(args: tuple[DistributionSpec, ConstraintSpec, int, int, int, int]) -> np.ndarray:
    dist, spec, n, seed, start, stop = args
    out = np.empty(stop - start, dtype=float)
    for i, t in enumerate(range(start, stop)):
        inst = sample_instance(dist, n, derive_seed(seed, "opt", t))
        out[i] = optimal_matching(inst, spec).value
    return out


def concentration_experiment(
    dist: DistributionSpec,
    spec: ConstraintSpec,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ConcentrationStats:
    """Sample the offline optimum ``trials`` times and tabulate tail mass
    beyond alpha(delta') = sqrt(2 k ln(2/delta')) against the sub-Gaussian
    bound 2 exp(-alpha^2 / 2k)."""
    if not isinstance(trials, int) or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    _check_workers(workers)
    args = [(dist, spec, n, seed, s, e) for s, e in _split(trials, workers)]
    opts = np.concatenate(_map_blocks(_opt_block, args, workers))
    k = spec.k
    mean = float(opts.mean())
    rows = []
    for dp in DELTA_PRIME_GRID:
        alpha = math.sqrt(2 * k * math.log(2 / dp))
        exceed = float(np.mean(np.abs(opts - mean) >= alpha))
        rows.append(TailRow(dp, alpha, exceed, 2 * math.exp(-(alpha**2) / (2 * k))))
    return ConcentrationStats(trials, k, mean, _sample_std(opts), tuple(rows))


# ---------------------------------------------------------------------------
# uniform convergence over a policy net


@dataclass(frozen=True, slots=True)
class ConvergenceStats:
    net_size: int
    trials: int
    calibration_trials: int
    n: int
    k: int
    d: int
    count_dev: dict[str, float]
    prop_count_dev: dict[str, float]
    value_dev: dict[str, float]
    fitted_c0_count: float
    fitted_c0_value: float
    all_zero_retained_mean: float | None
    all_zero_retained_std: float | None
    all_zero_value_mean: float | None
    all_zero_value_std: float | None

    def to_json_obj(self) -> dict:
        return asdict(self)


def _net_thresholds_1d(net: Sequence[ThresholdsPolicy]) -> np.ndarray:
    return np.array([p.t[0] for p in net], dtype=float)


def _counts_values_1d(
    values: np.ndarray, thr: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    asc = np.sort(values)
    counts = values.size - np.searchsorted(asc, thr, side="left")
    prefix = np.concatenate(([0.0], np.cumsum(asc[::-1])))
    vals = prefix[np.minimum(k, counts)]
    return counts.astype(float), vals


def _conv_trial_stats(
    dist: DistributionSpec,
    spec: ConstraintSpec,
    n: int,
    seed: int,
    label: str,
    t: int,
    net: Sequence[ThresholdsPolicy],
    thr_1d: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(total counts, per-property counts flattened, values) for one trial."""
    sub = derive_seed(seed, label, t)
    if thr_1d is not None:
        values = sample_instance(dist, n, sub).values[:, 0]
        counts, vals = _counts_values_1d(values, thr_1d, spec.k)
        return counts, counts.copy(), vals
    inst = sample_instance(dist, n, sub)
    counts = np.empty(len(net), dtype=float)
    per_prop = np.empty(len(net) * spec.d, dtype=float)
    vals = np.empty(len(net), dtype=float)
    for i, policy in enumerate(net):
        _, stats = screen_with_policy(policy, inst, spec)
        counts[i] = stats.total
        per_prop[i * spec.d : (i + 1) * spec.d] = stats.per_property
        vals[i] = stats.value
    return counts, per_prop, vals


def _conv_cal_block(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dist, spec, n, seed, net, thr_1d, start, stop = args
    sum_counts = sum_prop = sum_vals = None
    for t in range(start, stop):
        counts, per_prop, vals = _conv_trial_stats(dist, spec, n, seed, "conv-cal", t, net, thr_1d)
        if sum_counts is None:
            sum_counts, sum_prop, sum_vals = counts, per_prop, vals
        else:
            sum_counts += counts
            sum_prop += per_prop
            sum_vals += vals
    return sum_counts, sum_prop, sum_vals


def _conv_eval_block(args) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    dist, spec, n, seed, net, thr_1d, rho, rho_prop, nu, zero_idx, start, stop = args
    m = stop - start
    dev_count = np.empty(m)
    dev_prop = np.empty(m)
    dev_val = np.empty(m)
    zero_count = np.empty(m)
    zero_val = np.empty(m)
    for i, t in enumerate(range(start, stop)):
        counts, per_prop, vals = _conv_trial_stats(dist, spec, n, seed, "conv-eval", t, net, thr_1d)
        dev_count[i] = np.max(np.abs(counts - rho))
        dev_prop[i] = np.max(np.abs(per_prop - rho_prop))
        dev_val[i] = np.max(np.abs(vals - nu))
        zero_count[i] = counts[zero_idx] if zero_idx >= 0 else math.nan
        zero_val[i] = vals[zero_idx] if zero_idx >= 0 else math.nan
    return dev_count, dev_prop, dev_val, zero_count, zero_val


def _quantiles(a: np.ndarray) -> dict[str, float]:
    qs = np.quantile(a, [0.5, 0.9, 0.95])
    return {"p50": float(qs[0]), "p90": float(qs[1]), "p95": float(qs[2]), "max": float(a.max())}


def convergence_experiment(
    dist: DistributionSpec,
    spec: ConstraintSpec,
    n: int,
    trials: int,
    net: Sequence[ThresholdsPolicy],
    seed: int,
    calibration_factor: int = 10,
    workers: int = 1,
) -> ConvergenceStats:
    """Estimate per-policy expectations on a large calibration run, then
    measure worst-case deviations over the net on fresh trials.

    Single-property instances use a vectorized order-statistics kernel;
    other shapes fall back to screening each policy per trial.
    """
    if not isinstance(trials, int) or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    _check_workers(workers)
    if len(net) == 0:
        raise ConfigError("policy net is empty")
    for policy in net:
        if policy.d != spec.d:
            raise ConfigError(f"net policy has {policy.d} thresholds, spec has {spec.d}")
    thr_1d = None
    if spec.d == 1 and dist.kind != "overlap-bernoulli":
        thr_1d = _net_thresholds_1d(net)

    cal_trials = calibration_factor * trials
    cal_args = [
        (dist, spec, n, seed, tuple(net), thr_1d, s, e) for s, e in _blocks(cal_trials, _BLOCK)
    ]
    sum_counts = sum_prop = sum_vals = None
    for c, pp, v in _map_blocks(_conv_cal_block, cal_args, workers):
        if sum_counts is None:
            sum_counts, sum_prop, sum_vals = c, pp, v
        else:
            sum_counts += c
            sum_prop += pp
            sum_vals += v
    rho = sum_counts / cal_trials
    rho_prop = sum_prop / cal_trials
    nu = sum_vals / cal_trials

    zero_idx = -1
    for i, policy in enumerate(net):
        if all(x == 0.0 for x in policy.t):
            zero_idx = i
            break

    eval_args = [
        (dist, spec, n, seed, tuple(net), thr_1d, rho, rho_prop, nu, zero_idx, s, e)
        for s, e in _blocks(trials, _BLOCK)
    ]
    parts = _map_blocks(_conv_eval_block, eval_args, workers)
    dev_count = np.concatenate([p[0] for p in parts])
    dev_prop = np.concatenate([p[1] for p in parts])
    dev_val = np.concatenate([p[2] for p in parts])
    zero_counts = np.concatenate([p[3] for p in parts])
    zero_vals = np.concatenate([p[4] for p in parts])

    k, d = spec.k, spec.d
    count_unit = math.sqrt(k * (math.log(max(d, 2)) * math.log(n / k) + math.log(20.0)))
    value_unit = math.sqrt(k * (d * math.log(max(k, 2)) + math.log(20.0)))
    q95_count = float(np.quantile(dev_count, 0.95))
    q95_val = float(np.quantile(dev_val, 0.95))

    has_zero = zero_idx >= 0
    return ConvergenceStats(
        net_size=len(net),
        trials=trials,
        calibration_trials=cal_trials,
        n=n,
        k=k,
        d=d,
        count_dev=_quantiles(dev_count),
        prop_count_dev=_quantiles(dev_prop),
        value_dev=_quantiles(dev_val),
        fitted_c0_count=q95_count / count_unit,
        fitted_c0_value=q95_val / value_unit,
        all_zero_retained_mean=float(zero_counts.mean()) if has_zero else None,
        all_zero_retained_std=_sample_std(zero_counts) if has_zero else None,
        all_zero_value_mean=float(zero_vals.mean()) if has_zero else None,
        all_zero_value_std=_sample_std(zero_vals) if has_zero else None,
    )


def lower_bound_distribution(d: int) -> DistributionSpec:
    """The hard instance family: d disjoint classes, uniform class choice,
    uniform value.  Meant to be paired with caps of one slot per property."""
    return DistributionSpec("disjoint-properties-uniform", d)


# ---------------------------------------------------------------------------
# emission


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def trial_stats_row(cfg: ExperimentConfig, stats: TrialStats) -> dict:
    agg = stats.aggregates
    return {
        "scenario": cfg.scenario,
        "n": cfg.n,
        "k": cfg.spec.k,
        "d": cfg.spec.d,
        "delta": cfg.delta,
        "trials": cfg.trials,
        "mean_retained": agg.mean_retained,
        "std_retained": agg.std_retained,
        "success_rate": agg.success_rate,
        "mean_opt": agg.mean_opt,
        "std_opt": agg.std_opt,
        "max_dev_count": None,
        "max_dev_value": None,
    }


def convergence_row(scenario: str, delta: float, stats: ConvergenceStats) -> dict:
    return {
        "scenario": scenario,
        "n": stats.n,
        "k": stats.k,
        "d": stats.d,
        "delta": delta,
        "trials": stats.trials,
        "mean_retained": stats.all_zero_retained_mean,
        "std_retained": stats.all_zero_retained_std,
        "success_rate": None,
        "mean_opt": stats.all_zero_value_mean,
        "std_opt": stats.all_zero_value_std,
        "max_dev_count": stats.count_dev["max"],
        "max_dev_value": stats.value_dev["max"],
    }


def write_aggregates_csv(fh: IO[str], rows: Sequence[dict]) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")


def write_records_jsonl(fh: IO[str], records: Sequence[TrialRecord]) -> None:
    for r in records:
        fh.write(json.dumps(r.to_json_obj(), sort_keys=True) + "\n")
