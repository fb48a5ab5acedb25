"""The benchmark's three workloads.

Each workload drives screenmatch only through its public functions and
``screenmatch.cli.run_cli``.  A workload runs in *rounds*: one round is a
fixed amount of work whose inputs are derived from a round seed.
``run.py`` times rounds, repeats them, and checks that a repeated round
reproduces its first occurrence bit for bit.

Why these three (BENCHMARK.json holds one sentence each):

- ``mc_d1``: run_trials in the C4 shape (d=1, caps (10,), n=10^4), where
  sampling and validating Item objects dominate and the solver takes its
  sort path, so ``core`` and the worker dispatch are stressed and the
  min-cost flow is bypassed.
- ``mc_multi``: run_trials at d=2 and d=3 (n=1000), where every greedy
  arrival after warmup runs a full flow solve, so ``matching`` dominates;
  this is also the single-process baseline.
- ``cli_files``: the README CLI chain on 10^5-item JSONL files, where file
  writing, reading, parsing and validation dominate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import heapq
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import screenmatch as sm
from screenmatch import cli as sm_cli
from screenmatch import experiments as exp

import hostspeed


def sub_seed(seed: int, label: str, index: int = 0) -> int:
    """63-bit seed for (benchmark seed, label, index); independent of the program."""
    digest = hashlib.sha256(f"perfbench|{seed}|{label}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


@dataclass
class RoundResult:
    trials: int = 0  # trials completed; one CLI chain counts as one trial
    items: int = 0  # stream items generated or read
    ops: int = 0  # operations attempted: a trial or a CLI command
    failed: int = 0  # operations that raised, exited non-zero or failed a check
    parts: dict[str, float] = field(default_factory=dict)  # seconds inside each screenmatch call
    scaled: dict[str, float] = field(default_factory=dict)  # the same, scaled by hostspeed
    reference: list[float] = field(default_factory=list)  # hostspeed kernel times around the calls
    records: dict[str, list] = field(default_factory=dict)  # family -> trial records
    _hash: object = field(default_factory=hashlib.sha256)

    @property
    def wall(self) -> float:
        return math.fsum(self.parts.values())

    @property
    def scaled_wall(self) -> float:
        return math.fsum(self.scaled.values())

    @contextlib.contextmanager
    def part(self, key: str):
        """Time one call into screenmatch as part ``key`` of the round."""
        try:
            with hostspeed.timed() as t:
                yield
        finally:  # a call that raises is timed too
            self.parts[key] = t.wall
            self.scaled[key] = t.scaled
            self.reference.append(t.reference)

    def add_digest(self, obj) -> None:
        self._hash.update(json.dumps(obj, sort_keys=True).encode())

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def _family(algorithm: str) -> str:
    return "greedy" if algorithm == "greedy" else "pipeline"


def _record_ok(rec: dict) -> bool:
    return not rec["success"] or rec["value"] == rec["opt_value"]


def _quality(records: dict[str, list[dict]]) -> dict[str, float]:
    out = {}
    for fam in ("greedy", "pipeline"):
        recs = records.get(fam, [])
        out[f"mean_retained.{fam}"] = math.fsum(r["retained"] for r in recs) / max(len(recs), 1)
        out[f"success_rate.{fam}"] = sum(bool(r["success"]) for r in recs) / max(len(recs), 1)
    return out


def _read_spec_files(workdir: str, label: str):
    with open(os.path.join(workdir, f"{label}.dist.json"), encoding="utf-8") as fh:
        dist = sm.read_distribution_spec(fh, fh.name)
    with open(os.path.join(workdir, f"{label}.spec.json"), encoding="utf-8") as fh:
        spec = sm.read_constraint_spec(fh, fh.name)
    return dist, spec


def _write_spec_files(workdir: str, label: str, dist, caps) -> None:
    with open(os.path.join(workdir, f"{label}.dist.json"), "w", encoding="utf-8") as fh:
        sm.write_distribution_spec(dist, fh)
    with open(os.path.join(workdir, f"{label}.spec.json"), "w", encoding="utf-8") as fh:
        sm.write_constraint_spec(sm.ConstraintSpec(caps), fh)


def _run_trials(res: RoundResult, cfg, workers: int) -> None:
    """One run_trials call: timed, digested, and every record checked."""
    res.ops += cfg.trials
    try:
        with res.part(cfg.scenario):
            stats = exp.run_trials(cfg, workers=workers)
    except Exception as exc:  # a failed call fails all its trials; keep measuring
        res.failed += cfg.trials
        res.add_digest(["error", cfg.scenario, repr(exc)])
        _log(f"{cfg.scenario}: run_trials raised {exc!r}")
        return
    recs = [r.to_json_obj() for r in stats.records]
    bad = sum(not _record_ok(r) for r in recs)
    if [r["trial"] for r in recs] != list(range(cfg.trials)):
        bad = cfg.trials
    if bad:
        _log(f"{cfg.scenario}: {bad} record(s) failed the output check")
    res.failed += bad
    res.trials += cfg.trials
    res.items += cfg.trials * cfg.n * (1 if cfg.algorithm == "greedy" else 2)
    res.records.setdefault(_family(cfg.algorithm), []).extend(recs)
    res.add_digest([cfg.scenario, recs, dataclasses.asdict(stats.aggregates)])


# ---------------------------------------------------------------------------
# Monte Carlo workloads


@dataclass(frozen=True)
class Shape:
    label: str
    dist: object
    caps: tuple[int, ...]
    n: int
    delta: float
    calls: int  # run_trials calls per algorithm and round
    runs: tuple[tuple[str, int, float], ...]  # (algorithm, trials per call, c0)


class MonteCarlo:
    """run_trials on fixed shapes; quality comes from the timed trials."""

    takes_workers = True

    def __init__(self, name, shapes, workers, quality_rounds):
        self.name = name
        self.shapes = shapes
        self.workers = workers
        self.quality_rounds = quality_rounds
        self._loaded: dict = {}

    def write_configs(self, workdir: str) -> None:
        for s in self.shapes:
            _write_spec_files(workdir, s.label, s.dist, s.caps)

    def load(self, workdir: str) -> None:
        self._loaded = {s.label: _read_spec_files(workdir, s.label) for s in self.shapes}

    def run_round(self, seed: int, workers: int, tracer=None) -> RoundResult:
        res = RoundResult()
        for s in self.shapes:
            dist, spec = self._loaded[s.label]
            for call in range(s.calls):
                for algorithm, trials, c0 in s.runs:
                    cfg = exp.ExperimentConfig(
                        scenario=f"{s.label}-{algorithm}-{call}",
                        dist=dist,
                        spec=spec,
                        n=s.n,
                        delta=s.delta,
                        trials=trials,
                        # both algorithms of a call see the same streams
                        seed=sub_seed(seed, s.label, call),
                        algorithm=algorithm,
                        c0=c0,
                    )
                    _run_trials(res, cfg, workers)
        return res

    def quality(self, seed: int, rounds: list[RoundResult]) -> tuple[dict, int, int]:
        merged: dict[str, list] = {}
        for r in rounds:
            for fam, recs in r.records.items():
                merged.setdefault(fam, []).extend(recs)
        return _quality(merged), 0, 0


# ---------------------------------------------------------------------------
# CLI workload

CLI_N = 100_000
CLI_CAPS = (10,)
CLI_GREEDY_DELTA = 0.001
CLI_TOPM = 20
CLI_PIPE_DELTA = 0.001
CLI_PIPE_C0 = 1.5
# The chain runs once per round; a single 10^5-item stream gives one
# retention sample per round, far too few for a steady mean.  So the
# quality metrics come from the CLI `trials` command, run once per
# benchmark run on many small streams outside the timed chain.
CLI_PROBE = {"n": 2000, "trials": 150, "delta": 0.001, "c0": 1.5, "scenario": "cli-probe"}

# (command key, argv); {d} is the work dir, {n} the stream length
CLI_CHAIN = (
    ("gen", ["gen", "--dist", "{d}/dist.json", "--n", "{n}", "--seed", "{train_seed}", "--out", "{d}/train.jsonl"]),
    ("gen", ["gen", "--dist", "{d}/dist.json", "--n", "{n}", "--seed", "{stream_seed}", "--out", "{d}/stream.jsonl"]),
    ("solve", ["solve", "--in", "{d}/stream.jsonl", "--spec", "{d}/spec.json", "--out", "{d}/solve.json"]),
    ("greedy", ["greedy", "--in", "{d}/stream.jsonl", "--spec", "{d}/spec.json", "--delta", str(CLI_GREEDY_DELTA), "--out", "{d}/greedy.json"]),
    ("learn_optimal", ["learn", "--in", "{d}/train.jsonl", "--spec", "{d}/spec.json", "--method", "optimal", "--out", "{d}/policy_optimal.json"]),
    ("learn_topm", ["learn", "--in", "{d}/train.jsonl", "--spec", "{d}/spec.json", "--method", "topm", "--m", str(CLI_TOPM), "--out", "{d}/policy_topm.json"]),
    ("screen", ["screen", "--in", "{d}/stream.jsonl", "--policy", "{d}/policy_topm.json", "--spec", "{d}/spec.json", "--out", "{d}/screen.json"]),
    ("pipeline", ["pipeline", "--train", "{d}/train.jsonl", "--in", "{d}/stream.jsonl", "--spec", "{d}/spec.json", "--mode", "exact-opt", "--delta", str(CLI_PIPE_DELTA), "--c0", str(CLI_PIPE_C0), "--out", "{d}/pipeline.json"]),
)
CLI_COMMANDS = ("gen", "solve", "greedy", "learn_optimal", "learn_topm", "screen", "pipeline")
# stream items each command writes or reads: gen writes n; pipeline reads two files
CLI_ITEMS = {"gen": 1, "solve": 1, "greedy": 1, "learn_optimal": 1, "learn_topm": 1, "screen": 1, "pipeline": 2}
CLI_OUTPUTS = (
    "train.jsonl", "stream.jsonl", "solve.json", "greedy.json", "policy_optimal.json",
    "policy_topm.json", "screen.json", "pipeline.json",
)


def run_cli_quietly(argv: list[str]) -> tuple[int, str]:
    """run_cli with its stdout and stderr captured; returns (code, stderr).

    An exception that escapes run_cli fails the command with code 1."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = sm_cli.run_cli(argv)
    except Exception as exc:  # a failed command; keep measuring
        return 1, f"{err.getvalue()}raised {exc!r}"
    return code, err.getvalue()


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _reference_values(path: str) -> list[tuple[float, int]]:
    """(value, id) per line of a d=1 JSONL instance, parsed without screenmatch."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for pos, line in enumerate(fh):
            obj = json.loads(line)
            ((prop, value),) = obj["props"]
            if obj["id"] != pos or prop != 0 or not 0.0 <= value <= 1.0:
                raise ValueError(f"{path}:{pos + 1}: unexpected record {line.strip()}")
            out.append((float(value), pos))
    return out


def _topk_solution(pairs, k: int) -> dict:
    top = heapq.nlargest(k, pairs)
    return {"value": math.fsum(v for v, _ in top), "assignment": sorted([i, 0] for _, i in top)}


def _reference_greedy(pairs, k: int, delta: float) -> dict:
    num, den = Fraction(delta).numerator, Fraction(delta).denominator
    warmup = (num * len(pairs)) // (den * k)
    heap: list[tuple[float, int]] = []
    kept = []
    for entry in pairs[warmup:]:
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
        else:
            continue
        kept.append(entry[1])
    return {
        "warmup": warmup,
        "retained_ids": kept,
        "retained": len(kept),
        "final_solution": _topk_solution(heap, k),
    }


def check_cli_outputs(d: str, n: int) -> dict[str, bool]:
    """Per command: do its outputs match an independent d=1 reference?"""
    k = CLI_CAPS[0]
    ok = dict.fromkeys(CLI_COMMANDS, False)
    try:
        train = _reference_values(f"{d}/train.jsonl")
        stream = _reference_values(f"{d}/stream.jsonl")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _log(f"cli_files: generated files unreadable ({exc})")
        return ok
    ok["gen"] = len(train) == n and len(stream) == n

    def check(cmd, fn):
        try:
            ok[cmd] = bool(fn())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            _log(f"cli_files: {cmd} output unreadable ({exc})")

    solve = _topk_solution(stream, k)
    check("solve", lambda: _load_json(f"{d}/solve.json") == solve)
    check("greedy", lambda: _load_json(f"{d}/greedy.json") == _reference_greedy(stream, k, CLI_GREEDY_DELTA))
    train_desc = sorted(train, reverse=True)
    check("learn_optimal", lambda: _load_json(f"{d}/policy_optimal.json") == {"t": [train_desc[k - 1][0]]})
    t_topm = train_desc[CLI_TOPM - 1][0]
    check("learn_topm", lambda: _load_json(f"{d}/policy_topm.json") == {"t": [t_topm]})
    kept = [(v, i) for v, i in stream if v >= t_topm]
    check(
        "screen",
        lambda: _load_json(f"{d}/screen.json")
        == {
            "retained_ids": [i for _, i in kept],
            "total": len(kept),
            "per_property": [len(kept)],
            "value": _topk_solution(kept, k)["value"],
        },
    )

    def pipeline_ok():
        p = _load_json(f"{d}/pipeline.json")
        final = p["final_solution"]["value"]
        return (
            p["value_gap"] == solve["value"] - final
            and p["optimal_vs_fullstream"] == (final == solve["value"])
            and p["retained_final"] <= p["retained_after_policy"] <= n
        )

    check("pipeline", pipeline_ok)
    for cmd, good in ok.items():
        if not good:
            _log(f"cli_files: {cmd} output failed the reference check")
    return ok


class CliFiles:
    """The README chain run in-process through run_cli on files in a work dir."""

    takes_workers = False

    def __init__(self, name, n=CLI_N):
        self.name = name
        self.n = n
        self.workers = 1
        self.quality_rounds = 1
        self.workdir = ""
        self._checked: set[str] = set()

    def write_configs(self, workdir: str) -> None:
        with open(f"{workdir}/dist.json", "w", encoding="utf-8") as fh:
            sm.write_distribution_spec(D1, fh)
        with open(f"{workdir}/spec.json", "w", encoding="utf-8") as fh:
            sm.write_constraint_spec(sm.ConstraintSpec(CLI_CAPS), fh)
        cfg = dict(CLI_PROBE, dist=f"{workdir}/dist.json", spec=f"{workdir}/spec.json")
        with open(f"{workdir}/probe.json", "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, sort_keys=True)

    def load(self, workdir: str) -> None:
        self.workdir = workdir

    def run_round(self, seed: int, workers: int, tracer=None) -> RoundResult:
        d = self.workdir
        fmt = {"d": d, "n": self.n, "train_seed": sub_seed(seed, "train"), "stream_seed": sub_seed(seed, "stream")}
        res = RoundResult()
        for name in CLI_OUTPUTS:  # a failed command must not leave the last round's file
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{d}/{name}")
        codes = {}
        for index, (key, argv) in enumerate(CLI_CHAIN):
            argv = [a.format(**fmt) for a in argv]
            span = tracer.span(f"cli.{key}", trial=index) if tracer else contextlib.nullcontext()
            with res.part(f"{index}:{key}"), span:
                code, err = run_cli_quietly(argv)
            res.ops += 1
            res.items += self.n * CLI_ITEMS[key]
            if code != 0:
                _log(f"cli_files: {argv[0]} exited {code}: {err.strip()}")
                codes[key] = code
                res.add_digest(["error", index, key, code, err])
        res.trials = 1
        for name in CLI_OUTPUTS:
            try:
                with open(f"{d}/{name}", "rb") as fh:
                    res.add_digest(hashlib.sha256(fh.read()).hexdigest())
            except OSError:
                res.add_digest(["missing", name])
        res.failed = len(codes)
        # a repeat of an already verified chain is checked by its digest instead
        if res.digest not in self._checked:
            checks = check_cli_outputs(d, self.n)
            res.failed = sum(1 for key, _ in CLI_CHAIN if codes.get(key) or not checks[key])
            if res.failed == 0:
                self._checked.add(res.digest)
        return res

    def quality(self, seed: int, rounds: list[RoundResult]) -> tuple[dict, int, int]:
        d = self.workdir
        records: dict[str, list] = {}
        ops = failed = 0
        for algorithm in ("greedy", "pipeline-exact-opt"):
            ops += CLI_PROBE["trials"]
            code, err = run_cli_quietly(
                [
                    "trials", "--config", f"{d}/probe.json", "--algorithm", algorithm,
                    "--seed", str(sub_seed(seed, "probe")), "--records", f"{d}/records-{algorithm}.jsonl",
                    "--out", f"{d}/aggregates-{algorithm}.csv",
                ]
            )
            try:
                with open(f"{d}/records-{algorithm}.jsonl", encoding="utf-8") as fh:
                    recs = [json.loads(line) for line in fh] if code == 0 else []
            except (OSError, ValueError) as exc:
                _log(f"cli_files: trials records unreadable ({exc})")
                recs = []
            if len(recs) != CLI_PROBE["trials"]:
                _log(f"cli_files: trials {algorithm} exited {code} with {len(recs)} records: {err.strip()}")
                failed += CLI_PROBE["trials"]
                continue
            failed += sum(not _record_ok(r) for r in recs)
            records[_family(algorithm)] = recs
        return _quality(records), ops, failed


# ---------------------------------------------------------------------------

D1 = sm.DistributionSpec("single-property-uniform", 1)
D2 = sm.DistributionSpec("disjoint-properties-uniform", 2)
D3_OVERLAP = sm.DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3))

WORKLOADS = {
    w.name: w
    for w in (
        MonteCarlo(
            "mc_d1",
            # 16 trials per call: one 256-trial block today, several once the
            # block shrinks to 8 or less, so worker parallelism shows here.
            # Calls of about a second also keep each call inside one speed
            # spell of the host (see hostspeed).
            (Shape("c4", D1, (10,), 10_000, 1e-3, 2, (("greedy", 16, 1.0), ("pipeline-exact-opt", 16, 1.5))),),
            workers=2,
            quality_rounds=1,
        ),
        MonteCarlo(
            "mc_multi",
            (
                Shape("disjoint-d2", D2, (2, 1), 1000, 0.1, 4, (("greedy", 2, 1.0), ("pipeline-exact-opt", 6, 1.0))),
                Shape("overlap-d3", D3_OVERLAP, (2, 2, 2), 1000, 0.1, 4, (("greedy", 1, 1.0), ("pipeline-exact-opt", 3, 1.0))),
            ),
            workers=1,
            # two input sets of 48 trials: enough trials for steady quality
            # metrics, and few enough that a 24 s run covers both and
            # repeats one
            quality_rounds=2,
        ),
        CliFiles("cli_files"),
    )
}
