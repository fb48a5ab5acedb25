"""Command-line front end.

Data goes to stdout (or ``--out``); diagnostics go to stderr.  Exit codes:
0 success, 1 input or validation failure, 2 usage error.  Every randomized
subcommand takes ``--seed`` and defaults to DEFAULT_SEED, so reruns are
bit-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .core import (
    ConfigError,
    ConstraintSpec,
    InputError,
    _read_json,
    read_constraint_spec,
    read_distribution_spec,
    read_instance,
    require_valid,
    sample_instance,
    derive_seed,
    validate_items,
    write_instance,
)
from .greedy import greedy_screen, warmup_length
from .matching import optimal_matching
from .pipeline import PipelineConfig, run_pipeline
from .thresholds import (
    learn_optimal_thresholds,
    learn_topm_thresholds,
    quantile_policy_net,
    read_policy,
    screen_with_policy,
    write_policy,
)
from . import experiments as exp

DEFAULT_SEED = 12345


def _eprint(*parts) -> None:
    print(*parts, file=sys.stderr)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _read_file(path: str, reader):
    """``reader(fh, path)`` on the opened file; a byte that is not UTF-8
    becomes an ``InputError`` naming the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return reader(fh, path)
    except UnicodeDecodeError as exc:
        # every reader takes the file in one read, so the offset counts from its start
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


def _emit_json(obj, out: str | None) -> None:
    with _open_out(out) as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _parse_list(text: str, flag: str, kind: type) -> list:
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag} expects comma-separated {noun}, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args) -> int:
    dist = _read_file(args.dist, read_distribution_spec)
    inst = sample_instance(dist, args.n, args.seed)
    with _open_out(args.out) as fh:
        write_instance(inst, fh)
    _eprint(f"gen: wrote {inst.n} items (kind={dist.kind}, d={dist.d}, seed={args.seed})")
    return 0


def _cmd_solve(args) -> int:
    inst = _read_file(args.in_path, read_instance)
    spec = _read_file(args.spec, read_constraint_spec)
    sol = optimal_matching(inst, spec)
    _emit_json(sol.to_json_obj(), args.out)
    _eprint(f"solve: value={sol.value!r} over {inst.n} items")
    return 0


def _cmd_greedy(args) -> int:
    inst = _read_file(args.in_path, read_instance)
    spec = _read_file(args.spec, read_constraint_spec)
    if args.warmup is not None:
        warmup = args.warmup
    elif args.delta is not None:
        warmup = warmup_length(inst.n, spec.k, args.delta)
    else:
        warmup = 0
    res = greedy_screen(inst, spec, warmup, trace=args.trace)
    obj = {
        "warmup": warmup,
        "retained_ids": list(res.retained_ids),
        "retained": len(res.retained_ids),
        "final_solution": res.final_solution.to_json_obj(),
    }
    if args.trace:
        obj["trace"] = [
            {"step": s.step, "item_id": s.item_id, "retained": s.retained, "running_value": s.running_value}
            for s in res.trace
        ]
    _emit_json(obj, args.out)
    _eprint(f"greedy: retained {len(res.retained_ids)} of {inst.n} (warmup={warmup})")
    return 0


def _cmd_learn(args) -> int:
    train = _read_file(args.in_path, read_instance)
    spec = _read_file(args.spec, read_constraint_spec)
    if args.method == "net":
        stream_n = args.stream_n if args.stream_n is not None else train.n
        net = quantile_policy_net(train, spec, stream_n, max_net_size=args.max_net)
        with _open_out(args.out) as fh:
            for policy in net:
                write_policy(policy, fh)
        _eprint(f"learn: net of {len(net)} policies")
        return 0
    if args.method == "optimal":
        policy = learn_optimal_thresholds(train, spec)
    else:
        if args.m is None:
            raise ConfigError("--m is required with --method topm")
        m = _parse_list(args.m, "--m", int)
        if len(m) == 1:
            m = m * spec.d
        policy = learn_topm_thresholds(train, spec, m)
    with _open_out(args.out) as fh:
        write_policy(policy, fh)
    return 0


def _cmd_screen(args) -> int:
    inst = _read_file(args.in_path, read_instance)
    policy = _read_file(args.policy, read_policy)
    spec = _read_file(args.spec, read_constraint_spec) if args.spec else None
    rules = spec or ConstraintSpec((1,) * policy.d)
    require_valid(validate_items(inst, rules), args.in_path)
    retained, stats = screen_with_policy(policy, inst, spec)
    obj = {
        "retained_ids": retained.ids.tolist(),
        "total": stats.total,
        "per_property": list(stats.per_property),
        "value": stats.value,
    }
    _emit_json(obj, args.out)
    _eprint(f"screen: retained {stats.total} of {inst.n}")
    return 0


def _cmd_pipeline(args) -> int:
    train = _read_file(args.train, read_instance)
    stream = _read_file(args.in_path, read_instance)
    spec = _read_file(args.spec, read_constraint_spec)
    split = {}
    if args.delta_split:
        split["delta_split"] = tuple(_parse_list(args.delta_split, "--delta-split", float))
    cfg = PipelineConfig(args.mode, args.delta, args.c0, **split)
    result = run_pipeline(train, stream, spec, cfg)
    _emit_json(result.to_json_obj(), args.out)
    _eprint(
        f"pipeline[{args.mode}]: retained {result.retained_final}"
        f" (policy pass {result.retained_after_policy}),"
        f" optimal={result.optimal_vs_fullstream}"
    )
    return 0


_JSON_KINDS = {str: "a string", int: "an integer", float: "a number"}


def _read_config(fh, source: str) -> dict:
    def build(obj) -> dict:
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        return obj

    return _read_json(fh, source, "config", build)


def _trials_config(args) -> tuple[exp.ExperimentConfig, str | None, int]:
    file_cfg = _read_file(args.config, _read_config) if args.config else {}

    def pick(flag_value, key: str, default=None, kind: type = str):
        """The flag, else the config value of the flag's JSON type, else the default."""
        if flag_value is not None:
            return flag_value
        value = file_cfg.get(key)
        if value is None:
            return default
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise InputError(f"{args.config}: {key} must be {_JSON_KINDS[kind]}, got {value!r}")
        try:
            return kind(value)
        except OverflowError:
            raise InputError(f"{args.config}: {key} is too large for a float") from None

    dist_path = pick(args.dist, "dist")
    spec_path = pick(args.spec, "spec")
    if dist_path is None or spec_path is None:
        raise ConfigError("trials needs --dist and --spec (flags or config file)")
    policy_path = pick(args.policy, "policy")
    policy = _read_file(policy_path, read_policy) if policy_path else None
    n = pick(args.n, "n", kind=int)
    trials = pick(args.trials, "trials", kind=int)
    if n is None or trials is None:
        raise ConfigError("trials needs --n and --trials (flags or config file)")
    fields = dict(
        scenario=pick(args.scenario, "scenario", "adhoc"),
        dist=_read_file(dist_path, read_distribution_spec),
        spec=_read_file(spec_path, read_constraint_spec),
        n=n,
        delta=pick(args.delta, "delta", 0.1, float),
        trials=trials,
        seed=pick(args.seed, "seed", DEFAULT_SEED, int),
        algorithm=pick(args.algorithm, "algorithm", "greedy"),
        c0=pick(args.c0, "c0", 1.0, float),
        policy=policy,
        out=pick(args.out, "out"),
    )
    workers = pick(args.workers, "workers", 1, int)
    try:
        cfg = exp.ExperimentConfig(**fields)
        exp._check_workers(workers)
    except ConfigError as exc:
        if args.config:
            raise ConfigError(f"{args.config}: {exc}") from exc
        raise
    return cfg, pick(args.records, "records"), workers


def _cmd_trials(args) -> int:
    cfg, records_path, workers = _trials_config(args)
    stats = exp.run_trials(cfg, workers=workers)
    if records_path:
        with open(records_path, "w", encoding="utf-8") as fh:
            exp.write_records_jsonl(fh, stats.records)
    with _open_out(cfg.out) as fh:
        exp.write_aggregates_csv(fh, [exp.trial_stats_row(cfg, stats)])
    agg = stats.aggregates
    _eprint(
        f"trials[{cfg.algorithm}]: {cfg.trials} trials, mean retained"
        f" {agg.mean_retained:.3f}, success rate {agg.success_rate:.4f}"
    )
    return 0


def _cmd_concentration(args) -> int:
    dist = _read_file(args.dist, read_distribution_spec)
    spec = _read_file(args.spec, read_constraint_spec)
    stats = exp.concentration_experiment(
        dist, spec, args.n, args.trials, args.seed, workers=args.workers
    )
    _emit_json(stats.to_json_obj(), args.out)
    _eprint(f"concentration: mean={stats.mean:.4f} std={stats.std:.4f} over {stats.trials} trials")
    return 0


def _cmd_converge(args) -> int:
    dist = _read_file(args.dist, read_distribution_spec)
    spec = _read_file(args.spec, read_constraint_spec)
    train_n = args.train_n if args.train_n is not None else args.n
    train = sample_instance(dist, train_n, derive_seed(args.seed, "net-train", 0))
    net = quantile_policy_net(train, spec, args.n, max_net_size=args.max_net)
    stats = exp.convergence_experiment(
        dist,
        spec,
        args.n,
        args.trials,
        net,
        args.seed,
        calibration_factor=args.calibration_factor,
        workers=args.workers,
    )
    _emit_json(stats.to_json_obj(), args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            exp.write_aggregates_csv(
                fh, [exp.convergence_row(args.scenario, 0.05, stats)]
            )
    _eprint(
        f"converge: net={stats.net_size}, value dev p95={stats.value_dev['p95']:.4f},"
        f" fitted c0={stats.fitted_c0_value:.3f}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_in(p, required=True):
    p.add_argument("--in", dest="in_path", required=required, help="input instance (JSON lines)")


def _add_common(p, *, seed=True, workers=False):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root RNG seed")
    if workers:
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screenmatch",
        description="Constrained online screening: generation, solving, screening, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample an instance from a distribution config")
    p.add_argument("--dist", required=True, help="distribution config (JSON)")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("solve", help="offline optimal matching for an instance")
    _add_in(p)
    p.add_argument("--spec", required=True, help="constraint spec (JSON)")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("greedy", help="online greedy screening over an instance file")
    _add_in(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--delta", type=float, default=None, help="failure budget; warmup=floor(dn/k)")
    p.add_argument("--warmup", type=int, default=None, help="explicit warmup override")
    p.add_argument("--trace", action="store_true", help="emit per-arrival decisions")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_greedy)

    p = sub.add_parser("learn", help="learn a thresholds policy from a training instance")
    _add_in(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--method", choices=("optimal", "topm", "net"), default="optimal")
    p.add_argument("--m", default=None, help="top-m ranks, comma-separated (topm)")
    p.add_argument("--stream-n", type=int, default=None, help="target stream length (net)")
    p.add_argument("--max-net", type=int, default=20000, help="net size refusal bound")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("screen", help="apply a thresholds policy to an instance")
    _add_in(p)
    p.add_argument("--policy", required=True, help="policy file (JSON)")
    p.add_argument("--spec", default=None, help="optional; adds optimal value of survivors")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_screen)

    p = sub.add_parser("pipeline", help="train a policy, screen a stream, compare to optimum")
    p.add_argument("--train", required=True, help="training instance (JSON lines)")
    _add_in(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=("value-approx", "exact-opt"), default="value-approx")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--delta-split", default=None, help="three weights summing to 1")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("trials", help="repeated seeded runs of one algorithm, CSV aggregate")
    p.add_argument("--config", default=None, help="JSON config; flags override its keys")
    p.add_argument("--scenario", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--spec", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--algorithm", choices=exp.ALGORITHMS, default=None)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--policy", default=None, help="fixed policy file (policy-fixed)")
    p.add_argument("--records", default=None, help="per-trial records output (JSON lines)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_trials)

    p = sub.add_parser("concentration", help="tail behaviour of the offline optimum")
    p.add_argument("--dist", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    _add_common(p, workers=True)
    p.set_defaults(fn=_cmd_concentration)

    p = sub.add_parser("converge", help="uniform convergence of policy statistics over a net")
    p.add_argument("--dist", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--train-n", type=int, default=None, help="training sample size (default n)")
    p.add_argument("--max-net", type=int, default=20000)
    p.add_argument("--calibration-factor", type=int, default=10)
    p.add_argument("--scenario", default="converge")
    p.add_argument("--csv", default=None, help="also write a one-row CSV aggregate")
    _add_common(p, workers=True)
    p.set_defaults(fn=_cmd_converge)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        _eprint(f"error: {exc}")
        return 1
    except MemoryError as exc:
        # numpy's MemoryError names the allocation that failed; a bare one has no text
        _eprint(f"error: {str(exc) or 'out of memory'}")
        return 1


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
