"""A standing fuzz of the CLI boundary: seeded calls of every subcommand,
built by walking ``build_parser()``'s own actions, so that a new flag is
fuzzed with no edit here.

Each call picks a world (a property count d) and draws every flag's value
from fixed pools: mostly good values and files of that world, sometimes a
boundary value, a malformed file or a file of another world.  Sizes are
capped (n <= 50, trials <= 3, calibration factor <= 2, --max-net <= 2000,
workers <= 2), so no call forks more than one helper.  Every call must
exit 0, 1 or 2, print an ``error:`` line when it exits 1, and raise
nothing out of ``run_cli``.
"""

import argparse
import json
import math
import random
import time

from screenmatch import (
    ConstraintSpec, DistributionSpec, ThresholdsPolicy, sample_instance, write_constraint_spec,
    write_distribution_spec, write_instance, write_policy,
)
from screenmatch.cli import build_parser, run_cli

CALLS = 1000
GOOD_SHARE = 0.85  # the chance that a value is drawn from its good pool

WORLDS = {
    1: (DistributionSpec("single-property-uniform", 1), (3,)),
    2: (DistributionSpec("disjoint-properties-uniform", 2), (2, 1)),
    3: (DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3)), (1, 1, 1)),
}

# (good, boundary or bad) values by flag destination; a destination not named
# here draws from its type's pools
INT_POOLS = {
    "n": ([5, 20, 50], [0, 1, 2, -1]),
    "trials": ([1, 2, 3], [0, -1]),
    "workers": ([1, 2], [0, -1]),
    "seed": ([0, 7, 12345], [-1, 2**64]),
    "max_net": ([20, 200], [0, 1, -1, 2000]),
    "calibration_factor": ([1, 2], [0, -1]),
    "warmup": ([0, 3, 10], [60, -1]),
    "stream_n": ([10, 50], [0, -1]),
    "train_n": ([10, 50], [0, -1]),
}
INT_DEFAULT = ([0, 1, 2], [3, -1])
FLOAT_POOLS = {
    "delta": ([0.1, 0.05, 1e-3], [1e-310, 0.0, 1.0, -0.5, 7.0, math.nan, math.inf]),
    "c0": ([0.0, 1.0, 1.5], [1e308, -1.0, math.nan, math.inf]),
}
FLOAT_DEFAULT = ([0.0, 0.5, 1.0], [-1.0, 1e-310, 1e308, math.nan, math.inf])
WORDS = (["3", "1"], ["2,1", "x", "0", "", "a,b", 'q"uote'])
BAD_TOKENS = ["x", "", "1.5", "--"]  # argparse refuses these as numbers: exit 2


def _write(path, text):
    path.write_text(text)
    return str(path)


def _fixtures(tmp_path):
    """Per world, good files by kind; and malformed files by kind."""
    good = {}
    for d, (dist, caps) in WORLDS.items():
        files = {}
        with open(tmp_path / f"dist{d}.json", "w") as fh:
            write_distribution_spec(dist, fh)
        files["dist"] = [str(tmp_path / f"dist{d}.json")]
        with open(tmp_path / f"spec{d}.json", "w") as fh:
            write_constraint_spec(ConstraintSpec(caps), fh)
        files["spec"] = [str(tmp_path / f"spec{d}.json")]
        files["instance"] = []
        for seed, n in ((1, 40), (2, 40), (3, 8)):
            path = tmp_path / f"inst{d}_{seed}.jsonl"
            with open(path, "w") as fh:
                write_instance(sample_instance(dist, n, seed), fh)
            files["instance"].append(str(path))
        files["policy"] = []
        for i, t in enumerate([(0.5,) * d, (0.0,) * d, (float("inf"),) + (0.7,) * (d - 1)]):
            path = tmp_path / f"policy{d}_{i}.json"
            with open(path, "w") as fh:
                write_policy(ThresholdsPolicy(t), fh)
            files["policy"].append(str(path))
        files["config"] = []
        for i, algorithm in enumerate(["greedy", "pipeline-exact-opt", "policy-fixed"]):
            cfg = {"dist": files["dist"][0], "spec": files["spec"][0], "n": 30, "trials": 2,
                   "algorithm": algorithm, "workers": 1}
            if algorithm == "policy-fixed":
                cfg["policy"] = files["policy"][0]
            files["config"].append(_write(tmp_path / f"cfg{d}_{i}.json", json.dumps(cfg)))
        good[d] = files
    bad_bytes = tmp_path / "latin1.jsonl"
    bad_bytes.write_bytes(b'{"id": 0, "props": [[0, 0.5]]}\n\xe9\n')
    bad = {
        "dist": ['{"kind": "nope", "d": 1}', '{"kind": "single-property-uniform", "d": 0}',
                 '{"kind": "overlap-bernoulli", "d": 2, "membership": [2, 0.5]}', "[]"],
        "spec": ['{"caps": []}', '{"caps": [0]}', '{"caps": "x"}', '{"caps": [1.5]}'],
        "instance": ['{"id": 0}\n', '{"id": 0, "props": [[0, 1.5]]}\n',
                     '{"id": 0, "props": [[0, 0.5]]}\n{"id": 0, "props": [[0, 0.2]]}\n',
                     '{"id": -1, "props": [[0, 0.5]]}\n', '{"id": 0, "props": {"0": 0.5}}\n', ""],
        "policy": ['{"t": {"ABOVE": 0.3}}', '{"t": []}', '{"t": [2]}', '{"t": ["0.5"]}'],
        "config": ["[]", '{"n": "x"}', '{"trials": 0}', '{"algorithm": "nope"}',
                   '{"delta": 1e999}'],
    }
    malformed = {
        kind: [_write(tmp_path / f"bad_{kind}_{i}.json", text) for i, text in enumerate(texts)]
        for kind, texts in bad.items()
    }
    # every kind also meets a non-JSON file, a directory, a missing path and a non-UTF-8 file
    common = [_write(tmp_path / "garbage.txt", "not json"), str(tmp_path),
              str(tmp_path / "missing.json"), str(bad_bytes)]
    for paths in malformed.values():
        paths += common
    outputs = [str(tmp_path / "out.txt"), str(tmp_path / "out2.txt")]
    bad_outputs = [str(tmp_path), str(tmp_path / "missing" / "out.txt")]
    return good, malformed, (outputs, bad_outputs)


FILE_KINDS = {"dist": "dist", "spec": "spec", "in_path": "instance", "train": "instance",
              "policy": "policy", "config": "config"}
OUTPUT_DESTS = {"out", "records", "csv"}


def _value(rng, action, world, fixtures):
    """One value for ``action`` in ``world``, as a command-line token."""
    good_files, malformed, (outputs, bad_outputs) = fixtures
    good = rng.random() < GOOD_SHARE
    if action.choices is not None:
        choices = sorted(action.choices)
        return rng.choice(choices) if good else rng.choice(choices + ["nope"])
    if action.type is int or action.type is float:
        if not good and rng.random() < 0.2:
            return rng.choice(BAD_TOKENS)
        pools = INT_POOLS if action.type is int else FLOAT_POOLS
        default = INT_DEFAULT if action.type is int else FLOAT_DEFAULT
        pool = pools.get(action.dest, default)[0 if good else 1]
        return repr(rng.choice(pool)) if action.type is float else str(rng.choice(pool))
    if action.dest in OUTPUT_DESTS:
        return rng.choice(outputs if good else bad_outputs)
    kind = FILE_KINDS.get(action.dest)
    if kind is None:
        return rng.choice(WORDS[0] if good else WORDS[1])
    if good:
        return rng.choice(good_files[world][kind])
    other = rng.choice([d for d in WORLDS if d != world])
    return rng.choice(malformed[kind] + good_files[other][kind])


def _argv(rng, name, sub, fixtures):
    world = rng.choice(sorted(WORLDS))
    argv = [name]
    actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
    rng.shuffle(actions)
    for action in actions:
        # a required flag is left out now and then, for a usage error; a size
        # flag whose default is past its cap is always given
        capped = action.dest in INT_POOLS and action.default is not None and (
            action.default > max(INT_POOLS[action.dest][0])
        )
        if not (capped or rng.random() < (0.98 if action.required else 0.5)):
            continue
        argv += action.option_strings[:1]  # a positional has none
        if action.nargs != 0:
            argv.append(_value(rng, action, world, fixtures))
    if rng.random() < 0.02:
        argv.append("--bogus")
    return argv


def test_the_cli_boundary_holds_under_a_seeded_fuzz(tmp_path, capsys):
    rng = random.Random(20141)
    fixtures = _fixtures(tmp_path)
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    commands = sorted(subparsers.choices.items())
    codes = {0: 0, 1: 0, 2: 0}
    start = time.perf_counter()
    for _ in range(CALLS):
        name, sub = rng.choice(commands)
        argv = _argv(rng, name, sub, fixtures)
        try:
            code = run_cli(argv)
        except (Exception, SystemExit) as exc:  # any escape is the failure sought
            raise AssertionError(f"run_cli({argv!r}) raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in codes, (argv, code, err)
        if code == 1:
            assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
        assert "Traceback" not in err, (argv, err)
        codes[code] += 1
    elapsed = time.perf_counter() - start
    share = codes[0] / CALLS
    print(f"cli fuzz: {CALLS} calls in {elapsed:.1f}s, exit codes {codes}, {share:.0%} exit 0")
    assert share >= 0.30
    assert elapsed <= 5.0
