"""Monte Carlo harness: retention scaling, optimal-value concentration, and
uniform convergence of policy statistics over a policy net.

Every trial derives its own sub-seed from (root seed, purpose label, trial
index), so results are reproducible bit-for-bit and independent of the
worker count.  Each experiment is one per-trial function, which
``_trial_block`` folds over a block of trials: into a list of the trials'
results, or into their sum.  ``run_trials`` and ``concentration_experiment``
deal their trials out as one contiguous block per worker and merge the
per-trial results in index order, so block boundaries never show in the
output.  ``convergence_experiment`` sums its calibration statistics per
block, so it keeps blocks of a fixed size.

With W workers the calling process works one block itself, and W - 1
helper processes take the rest, each over one pipe, with no thread in the
caller.  Past the CPUs the process may run on, fewer helpers take the
blocks in turn.  Helpers are forked once per process and reused: the
first call that needs them forks them, later calls share them, and only
a call that needs more helpers than there are replaces them, as does a
call that finds one of them dead.  How many helpers there are never
shapes the blocks, so it never shows in the output either.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
from dataclasses import asdict, dataclass
from functools import partial
from typing import IO, Sequence

import numpy as np

from .core import (
    ConfigError,
    ConstraintSpec,
    DistributionSpec,
    Instance,
    derive_seed,
    sample_instance,
)
from .greedy import Arrivals, screen_entries, warmup_length
from .matching import _reaches_optimum, _solve, optimal_matching
from .pipeline import PipelineConfig, run_pipeline
from .thresholds import (
    ThresholdsPolicy, _check_c0, _clears, _retention_scale, screen_with_policy, value_slack
)

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
    "trial_stats_row",
    "convergence_row",
    "write_aggregates_csv",
    "write_records_jsonl",
]

ALGORITHMS = ("greedy", "pipeline-exact-opt", "policy-fixed")

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
# block boundaries: they stay fixed whatever the number of helpers
_BLOCK = 256


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One ``run_trials`` run: what it samples, the algorithm it screens
    with, and its parameters.  Where the results go is the caller's choice."""

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

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        _check_run(self.dist, self.spec, self.n, self.trials)
        if not (0.0 <= self.delta <= 1.0):
            raise ConfigError(f"delta must lie in [0, 1], got {self.delta!r}")
        if self.algorithm == "pipeline-exact-opt" and not (0.0 < self.delta < 1.0):
            raise ConfigError(f"{self.algorithm} needs delta in (0, 1), got {self.delta!r}")
        _check_c0(self.c0)
        if self.algorithm == "policy-fixed":
            if self.policy is None:
                raise ConfigError("policy-fixed needs an explicit policy")
            if self.policy.d != self.spec.d:
                raise ConfigError(
                    f"policy has {self.policy.d} thresholds but spec has {self.spec.d} properties"
                )
        elif self.policy is not None:
            raise ConfigError(f"algorithm {self.algorithm!r} takes no fixed policy")


def _check_run(dist: DistributionSpec, spec: ConstraintSpec, n: int, trials: int) -> None:
    """The rule every experiment's run shares, checked before anything is
    sampled: at least one trial, streams of at least k items, and a
    distribution of the spec's d, since every experiment samples for the
    spec it solves."""
    if not isinstance(trials, int) or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(n, int) or n < spec.k:
        raise ConfigError(f"n must be an integer >= k={spec.k}, got {n!r}")
    if dist.d != spec.d:
        raise ConfigError(f"distribution has d={dist.d} but spec has {spec.d} properties")


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
    if cfg.algorithm == "pipeline-exact-opt":
        train = sample_instance(cfg.dist, cfg.n, derive_seed(cfg.seed, "train", t))
        stream = sample_instance(cfg.dist, cfg.n, stream_seed)
        result = run_pipeline(train, stream, cfg.spec, PipelineConfig(cfg.delta, cfg.c0))
        return TrialRecord(
            t,
            result.retained_final,
            result.final_solution.value,
            result.opt_value,
            result.optimal_vs_fullstream,
            retained_after_policy=result.retained_after_policy,
            value_gap=result.value_gap,
        )

    inst = sample_instance(cfg.dist, cfg.n, stream_seed)
    # a sampled stream is valid by construction, so the solve makes no rule pass
    full = optimal_matching(inst, cfg.spec)
    if cfg.algorithm == "greedy":
        warmup = warmup_length(cfg.n, cfg.spec.k, cfg.delta)
        entries = Arrivals(inst.ids, inst.columns(cfg.spec.d))
        kept, sol, _ = screen_entries(entries, cfg.spec, warmup)
        retained = len(kept)
    else:
        screened, stats = screen_with_policy(cfg.policy, inst)
        retained, sol = stats.total, _solve(screened, cfg.spec)
    return TrialRecord(t, retained, sol.value, full.value, _reaches_optimum(inst, sol, full))


def _trial_block(args: tuple):
    """``fold`` of ``fn(t)`` over the trials t in [start, stop)."""
    fn, fold, start, stop = args
    return fold(fn(t) for t in range(start, stop))


def _check_workers(workers: int) -> None:
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")


def _blocks(total: int, size: int) -> list[tuple[int, int]]:
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def _split(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous blocks of ceil(total / workers) trials, one per worker."""
    return _blocks(total, -(-total // workers))


# this process's helpers: (pid that forked them, [(process, caller's pipe end), ...])
_pool: tuple[int, list] | None = None


def _run_blocks(fn, blocks: list) -> tuple[list, Exception | None]:
    """``fn`` over ``blocks`` in order, up to the first that raises: the
    results so far, and that exception or None."""
    done = []
    try:
        for a in blocks:
            done.append(fn(a))
    except Exception as exc:
        return done, exc
    return done, None


def _helper(conn, caller_ends: list, parent: int) -> None:
    """A helper's loop: each (fn, blocks) message gets one ``_run_blocks``
    reply.  It exits on EOF, on a stop message (None), or once ``parent``
    is gone.  It first closes the caller's pipe ends the fork gave it, so
    that the caller's exit shows every helper EOF."""
    for end in caller_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        try:
            conn.send(_run_blocks(*message))
        except OSError:  # the caller is gone
            return


def _fork_helper(older: list) -> tuple:
    """Fork one helper: its process, and the caller's end of its pipe.
    ``older`` holds the caller's ends of the helpers forked before it."""
    import multiprocessing  # only a run that forks pays for the import

    ctx = multiprocessing.get_context("fork")
    mine, theirs = ctx.Pipe()
    proc = ctx.Process(target=_helper, args=(theirs, [*older, mine], os.getpid()), daemon=True)
    proc.start()
    theirs.close()
    return proc, mine


def _drop_pool() -> None:
    """Stop this process's helpers and forget them; a forked child only
    forgets the helpers it inherited, which are its parent's."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        for _, conn in _pool[1]:
            with contextlib.suppress(OSError):  # a dead helper's pipe is broken
                conn.send(None)
            conn.close()
        for proc, _ in _pool[1]:
            proc.join(5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
    _pool = None


def _helpers(need: int) -> list:
    """At least ``need`` live helpers of this process, forked if it has
    fewer.  A helper never writes unasked, so a pipe with something to
    read between calls is the EOF of a dead helper."""
    global _pool
    if (
        _pool is None
        or _pool[0] != os.getpid()
        or len(_pool[1]) < need
        or any(conn.poll() for _, conn in _pool[1])
    ):
        _drop_pool()
        helpers: list = []
        for _ in range(need):
            helpers.append(_fork_helper([conn for _, conn in helpers]))
        _pool = (os.getpid(), helpers)
    return _pool[1]


def _cpus() -> int:
    """The CPUs this process may run on; a helper past them only adds a fork."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(fn, args_list: list, workers: int) -> list:
    """``fn`` over ``args_list`` in order, on this process and its helpers.

    With s = min(workers, blocks, ``_cpus()``), the caller runs blocks 0,
    s, 2s, ... itself while helper j runs blocks j, j + s, ...: one
    message out and one back per helper.  The helpers outlive the call; as
    daemons, they are stopped by ``multiprocessing``'s own exit hook.  A
    helper that dies during a call fails it with ``BrokenProcessPool``, and
    the next call forks afresh.  A block's exception is raised once every
    reply is read.
    """
    s = min(workers, len(args_list), _cpus())
    if s == 1:
        return [fn(a) for a in args_list]
    helpers = _helpers(s - 1)[: s - 1]
    in_step = False
    try:
        for j, (_, conn) in enumerate(helpers, 1):
            conn.send((fn, args_list[j::s]))
        outcomes = [_run_blocks(fn, args_list[::s])]
        outcomes += [conn.recv() for _, conn in helpers]
        in_step = True
    except (OSError, EOFError) as exc:
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("a helper process died during the call") from exc
    finally:
        if not in_step:  # helpers may still be at work: none of them is reused
            for proc, _ in helpers:
                proc.kill()
            _drop_pool()
    out = []
    for b in range(len(args_list)):
        done, exc = outcomes[b % s]
        if b // s == len(done):
            raise exc
        out.append(done[b // s])
    return out


def run_trials(cfg: ExperimentConfig, workers: int = 1) -> TrialStats:
    """Run ``cfg.trials`` independent trials and aggregate.

    ``workers`` (at least 1) only controls process parallelism; records
    and aggregates are identical for any worker count.
    """
    _check_workers(workers)
    args = [(partial(_one_trial, cfg), list, s, e) for s, e in _split(cfg.trials, workers)]
    records = [r for block in _map_blocks(_trial_block, args, workers) for r in block]
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


def _opt_value(dist: DistributionSpec, spec: ConstraintSpec, n: int, seed: int, t: int) -> float:
    inst = sample_instance(dist, n, derive_seed(seed, "opt", t))
    return optimal_matching(inst, spec).value


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
    _check_run(dist, spec, n, trials)
    _check_workers(workers)
    opt_value = partial(_opt_value, dist, spec, n, seed)
    args = [(opt_value, list, s, e) for s, e in _split(trials, workers)]
    opts = np.concatenate(_map_blocks(_trial_block, args, workers))
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


def _net_stats(
    inst: Instance, spec: ConstraintSpec, thr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(total counts, per-property counts flattened, values) of every net
    policy on one stream valid for ``spec``; row i of ``thr`` is policy i's
    thresholds.

    Per property, the owners' values are sorted once and every threshold is
    found by ``searchsorted``, under ``screen_with_policy``'s rule: a value
    >= t clears, and NaN never clears.  When every item owns at most one
    property the properties do not compete, and a policy's optimum is the
    top ``caps[p]`` of the owners it keeps, a prefix sum of each property's
    descending values.  Otherwise each policy's retained rows go to the
    solver.
    """
    values = inst.columns(spec.d)
    owned = [np.sort(col[col == col]) for col in values.T]
    # a valid item owns some property, so each owns one when the owners add up to n
    single = sum(asc.size for asc in owned) == inst.n
    counts = np.empty(thr.shape, dtype=np.int64)
    vals = np.zeros(len(thr))
    for p, (asc, cap) in enumerate(zip(owned, spec.caps)):
        counts[:, p] = asc.size - np.searchsorted(asc, thr[:, p], side="left")
        if single:
            prefix = np.concatenate(([0.0], np.cumsum(asc[::-1][:cap])))
            vals += prefix[np.minimum(cap, counts[:, p])]
    per_prop = counts.ravel().astype(float)
    if single:
        return counts.sum(axis=1).astype(float), per_prop, vals
    totals = np.empty(len(thr))
    for i, t in enumerate(thr):
        kept, _ = _clears(values, t)
        totals[i] = np.count_nonzero(kept)
        vals[i] = _solve(inst.take(kept), spec).value
    return totals, per_prop, vals


def _conv_stats(dist, spec, n, seed, thr, label: str, t: int) -> tuple[np.ndarray, ...]:
    """``_net_stats`` of trial t.  The sampler's streams are valid by
    construction for a spec of the distribution's d, which
    ``convergence_experiment`` requires, so ``_net_stats`` checks none."""
    return _net_stats(sample_instance(dist, n, derive_seed(seed, label, t)), spec, thr)


def _sum_in_order(parts) -> tuple[np.ndarray, ...]:
    """Elementwise sums of a run of equal-shaped array tuples, added in order
    into the first tuple's arrays."""
    parts = iter(parts)
    total = next(parts)
    for part in parts:
        for acc, a in zip(total, part):
            acc += a
    return total


def _conv_deviations(stats, rho, rho_prop, nu, zero_idx: int, t: int) -> list:
    """Trial t's row: the three worst deviations of its ``stats(t)``, then
    the all-zero policy's count and value (NaN without one)."""
    counts, per_prop, vals = stats(t)
    zero = (counts[zero_idx], vals[zero_idx]) if zero_idx >= 0 else (math.nan,) * 2
    devs = (counts - rho, per_prop - rho_prop, vals - nu)
    return [np.max(np.abs(dev)) for dev in devs] + list(zero)


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

    Each trial screens its stream through the whole net at once
    (``_net_stats``), for every shape of stream.
    """
    _check_run(dist, spec, n, trials)
    if not isinstance(calibration_factor, int) or calibration_factor < 1:
        raise ConfigError(
            f"calibration factor must be a positive integer, got {calibration_factor!r}"
        )
    _check_workers(workers)
    if len(net) == 0:
        raise ConfigError("policy net is empty")
    for policy in net:
        if policy.d != spec.d:
            raise ConfigError(f"net policy has {policy.d} thresholds, spec has {spec.d}")
    thr = np.array([policy.t for policy in net], dtype=float)

    cal_trials = calibration_factor * trials
    cal_stats = partial(_conv_stats, dist, spec, n, seed, thr, "conv-cal")
    cal_args = [(cal_stats, _sum_in_order, s, e) for s, e in _blocks(cal_trials, _BLOCK)]
    sums = _sum_in_order(_map_blocks(_trial_block, cal_args, workers))
    rho, rho_prop, nu = (x / cal_trials for x in sums)

    zeros = np.flatnonzero((thr == 0.0).all(axis=1))
    zero_idx = int(zeros[0]) if zeros.size else -1
    eval_stats = partial(_conv_stats, dist, spec, n, seed, thr, "conv-eval")
    deviations = partial(_conv_deviations, eval_stats, rho, rho_prop, nu, zero_idx)
    eval_args = [(deviations, list, s, e) for s, e in _blocks(trials, _BLOCK)]
    rows = np.array([row for b in _map_blocks(_trial_block, eval_args, workers) for row in b])
    dev_count, dev_prop, dev_val, zero_counts, zero_vals = np.ascontiguousarray(rows.T)

    k, d = spec.k, spec.d
    count_unit = _retention_scale(k, d, n, 0.05)
    value_unit = value_slack(k, d, 0.05)
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
