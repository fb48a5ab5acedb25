"""screenmatch benchmark: one workload per run, timed or traced.

    python3 perfbench/run.py --workload mc_d1 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run times rounds of the workload with no tracing and
prints the end-to-end metrics.  With ``--trace 1`` it runs each round
untraced (at 2 workers and at 1, where the workload takes a worker count),
then traced at 1 worker, checks that all give identical results, and prints
the per-layer metrics.  The last
line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A result file, and in traced runs a span file, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 12345
# keep every run well inside the 180 s a run may take
DEADLINE_S = 120.0

# The layer expected to hold the largest self-time share, where one is predicted.
PREDICTED_TOP_LAYER = {"mc_d1": "core", "mc_multi": "matching", "cli_files": "core"}


def import_program():
    """Import screenmatch from this checkout's src/, never from elsewhere."""
    if not (SRC / "screenmatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'screenmatch'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import screenmatch

    if Path(screenmatch.__file__).resolve().parent != (SRC / "screenmatch").resolve():
        raise SystemExit(f"perfbench: imported screenmatch from {screenmatch.__file__}, not {SRC}")
    return screenmatch


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "platform": platform.platform(),
    }


def workload_why(name: str) -> str:
    """The workload's one-line reason, as recorded in BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return ""
    return next((w.get("why", "") for w in spec.get("workloads", []) if w.get("name") == name), "")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload: str, workdir: str):
    """Time (a ``hostspeed.Timing``) of a fresh process importing screenmatch
    and writing the workload's config files into ``workdir``."""
    import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
           "--workdir", workdir]
    with hostspeed.timed() as t:
        subprocess.run(cmd, check=True)
    return t


class Run:
    """Operation tallies, round digests and notes for one benchmark run."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[int, str] = {}
        self.digests: list[str] = []
        self.notes: list[str] = []

    def round_seed(self, r: int) -> int:
        import workloads

        return workloads.sub_seed(self.seed, f"{self.wl.name}-round", r % self.wl.quality_rounds)

    def tally(self, res, r: int, label: str) -> None:
        """Count a round's operations; a round that differs from the first
        run of the same inputs fails all of its operations."""
        self.attempted += res.ops
        self.failed += res.failed
        index = r % self.wl.quality_rounds
        self.digests.append(f"{label}:{index}:{res.digest}")
        first = self.first_digest.setdefault(index, res.digest)
        if res.digest != first:
            self.failed += res.ops - res.failed
            self.notes.append(f"round {r} ({label}) differs from the first run of its inputs")


def scaled_rate(rounds, cycle: int, attr: str) -> float:
    """Work (``trials`` or ``items``) per second of scaled time.

    The scaled time of a call is its wall time brought to a nominal host
    speed (see ``hostspeed``).  Round ``r`` runs input set ``r % cycle``;
    the rate is one cycle's work over the sum of each input set's mean
    scaled round time, so every input set has the same weight however many
    times it ran.
    """
    work, seconds = 0, 0.0
    for index in range(min(cycle, len(rounds))):
        runs = rounds[index::cycle]
        work += getattr(runs[0], attr)
        seconds += statistics.fmean(x.scaled_wall for x in runs)
    return work / seconds


def timed_run(run: Run, seconds: float, t_start: float, workdir: str, first_setup) -> dict:
    """Time rounds; after each, time one more set-up.

    ``setup_s`` is the median scaled time of the set-ups.
    """
    wl = run.wl
    cycle = wl.quality_rounds
    rounds = []
    setups = [first_setup]
    t0 = time.perf_counter()
    r = 0
    # every input set at least once, and one repeat, so every run checks
    # determinism
    while r <= cycle or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - t_start > DEADLINE_S:
            run.notes.append(f"stopped after {r} rounds at the {DEADLINE_S:.0f} s deadline")
            break
        res = wl.run_round(run.round_seed(r), wl.workers)
        run.tally(res, r, f"w{wl.workers}")
        rounds.append(res)
        setups.append(measure_setup(wl.name, workdir))
        r += 1
    quality, ops, failed = wl.quality(run.seed, rounds[:cycle])
    run.attempted += ops
    run.failed += failed
    metrics = {
        "trials_per_s": (scaled_rate(rounds, cycle, "trials"), "1/s"),
        "items_per_s": (scaled_rate(rounds, cycle, "items"), "1/s"),
        "setup_s": (statistics.median(t.scaled for t in setups), "s"),
    }
    metrics.update({name: (value, "items" if name.startswith("mean") else "frac") for name, value in quality.items()})
    references = [ref for x in rounds for ref in x.reference]
    run.notes.append(
        f"{len(rounds)} timed rounds, {sum(x.wall for x in rounds):.3f} s inside screenmatch "
        f"({sum(x.trials for x in rounds) / sum(x.wall for x in rounds):.6g} trials/s unscaled); "
        f"hostspeed kernel median {statistics.median(references) * 1e3:.3f} ms, "
        f"range {min(references) * 1e3:.3f}-{max(references) * 1e3:.3f} ms; "
        f"median set-up {statistics.median(t.wall for t in setups):.3f} s unscaled"
    )
    return metrics


def traced_run(run: Run, seconds: float, t_start: float) -> tuple[dict, list]:
    import spans as sp

    wl = run.wl
    untraced = (2, 1) if wl.takes_workers else (1,)
    passes: dict[str, list] = {"w2": [], "w1": [], "traced": []}
    tracer = sp.Tracer()
    t0 = time.perf_counter()
    r = 0
    while r < 1 or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - t_start > DEADLINE_S:
            run.notes.append(f"stopped after {r} rounds at the {DEADLINE_S:.0f} s deadline")
            break
        seed = run.round_seed(r)
        for workers in untraced:
            res = wl.run_round(seed, workers)
            passes[f"w{workers}"].append(res)
            run.tally(res, r, f"w{workers}")
        tracer.pass_index = r
        with tracer.installed():
            res = wl.run_round(seed, 1, tracer=tracer)
        passes["traced"].append(res)
        run.tally(res, r, "traced")
        r += 1
    leftover = sp.wrapped_names()
    if leftover:
        run.failed += 1
        run.notes.append(f"wrappers left installed: {leftover}")
    sp.write_spans(OUT / f"{wl.name}-seed{run.seed}-spans.jsonl", tracer.spans, t0)
    walls = {label: math.fsum(x.scaled_wall for x in results) for label, results in passes.items()}
    return layer_metrics(tracer, r, walls)


def layer_metrics(tracer, passes: int, walls: dict) -> tuple[dict, list]:
    import spans as sp
    import workloads

    selfs = sp.self_times(tracer.spans)
    names = sp.by_name(tracer.spans, selfs)
    c = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def row(name):
        return names.get(name, empty)

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("core.sample_instance", "core.validate_instance", "core.read_instance", "core.write_instance"):
        m[f"{name}.self_s"] = (per_pass(row(name)["self_s"]), "s")
    m["core.items_sampled"] = (per_pass(c["core.items_sampled"]), "count")
    m["core.items_validated"] = (per_pass(c["core.items_validated"]), "count")
    m["core.read_items_per_s"] = (ratio(c["core.items_read"], row("core.read_instance")["total_s"]), "1/s")
    m["core.bytes_written"] = (per_pass(c["core.bytes_written"]), "bytes")

    solve = row("matching.optimal_matching")
    m["matching.optimal_matching.calls"] = (per_pass(solve["calls"]), "count")
    m["matching.optimal_matching.self_s"] = (per_pass(solve["self_s"]), "s")
    m["matching.optimal_matching.p50_us"] = (sp.percentile(solve["durations"], 50) * 1e6, "us")
    m["matching.optimal_matching.p99_us"] = (sp.percentile(solve["durations"], 99) * 1e6, "us")
    m["matching.flow_calls"] = (per_pass(c["matching.flow_calls"]), "count")
    m["matching.items_per_call"] = (ratio(c["matching.items"], solve["calls"]), "count")

    m["greedy.greedy_screen.self_s"] = (per_pass(row("greedy.greedy_screen")["self_s"]), "s")
    m["greedy.screen_entries.self_s"] = (per_pass(row("greedy.screen_entries")["self_s"]), "s")
    solves_in_greedy = sum(
        1
        for s in tracer.spans
        if s.name == "matching.optimal_matching" and s.parent >= 0
        and tracer.spans[s.parent].name == "greedy.screen_entries"
    )
    arrivals = c["greedy.arrivals_after_warmup"]
    m["greedy.solves_per_arrival"] = (ratio(solves_in_greedy, arrivals), "ratio")
    m["greedy.kept_ratio"] = (ratio(c["greedy.kept"], arrivals), "ratio")

    policy = row("thresholds.screen_with_policy")
    m["thresholds.screen_with_policy.calls"] = (per_pass(policy["calls"]), "count")
    m["thresholds.screen_with_policy.self_s"] = (per_pass(policy["self_s"]), "s")
    for name in ("learn_topm_thresholds", "learn_optimal_thresholds"):
        m[f"thresholds.{name}.self_s"] = (per_pass(row(f"thresholds.{name}")["self_s"]), "s")

    m["pipeline.run_pipeline.self_s"] = (per_pass(row("pipeline.run_pipeline")["self_s"]), "s")
    m["pipeline.survivor_ratio"] = (ratio(c["pipeline.survivors"], c["pipeline.stream_items"]), "ratio")

    m["experiments.run_trials.self_s"] = (per_pass(row("experiments.run_trials")["self_s"]), "s")
    m["experiments.blocks_per_call"] = (ratio(c["experiments.blocks"], row("experiments.run_trials")["calls"]), "count")
    # workloads without a worker count run the same work at "both" counts
    m["experiments.scaling_w2"] = (ratio(walls["w1"], walls["w2"]) if walls["w2"] else 1.0, "ratio")

    for cmd in workloads.CLI_COMMANDS:
        m[f"cli.{cmd}.wall_s"] = (per_pass(row(f"cli.{cmd}")["total_s"]), "s")

    layers = sp.layer_self(tracer.spans, selfs)
    total_self = sum(layers.values())
    for layer in sp.LAYERS:
        m[f"{layer}.self_share"] = (ratio(layers[layer], total_self), "frac")
    m["trace.overhead_frac"] = (ratio(walls["traced"], walls["w1"]) - 1.0, "frac")

    table = [
        {
            "span": name,
            "calls": r["calls"],
            "total_s": r["total_s"],
            "self_s": r["self_s"],
            "self_share": ratio(r["self_s"], total_self),
        }
        for name, r in sorted(names.items(), key=lambda kv: -kv[1]["self_s"])
    ]
    return m, table


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.write_configs(args.workdir)
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT)
    run = Run(wl, args.seed)
    try:
        setup = measure_setup(wl.name, workdir)
        wl.load(workdir)
        if args.trace:
            metrics, table = traced_run(run, args.seconds, t_start)
        else:
            metrics = timed_run(run, args.seconds, t_start, workdir, setup)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            table = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0
    facts = machine_facts()
    why = workload_why(wl.name)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {wl.name}: seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"why: {why}")
    for note in run.notes:
        print(f"note: {note}")
    if table is not None:
        import spans as sp

        print(f"{'span':38s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
        for row in table:
            print(f"{row['span']:38s} {row['calls']:>9d} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f} {row['self_share']:>7.1%}")
        shares = {layer: metrics[f"{layer}.self_share"][0] for layer in sp.LAYERS}
        top = max(shares, key=shares.get)
        predicted = PREDICTED_TOP_LAYER.get(wl.name)
        verdict = "no prediction" if predicted is None else (
            "holds" if top == predicted else f"does not hold (predicted {predicted})")
        print(f"largest self-time share: {top} {shares[top]:.1%}; prediction {verdict}")
    print_table("metrics:", metrics)
    fail_frac = run.failed / max(run.attempted, 1)
    print(f"  {'fail_frac':44s} {fail_frac:>16.6g} frac ({run.failed} of {run.attempted} operations)")

    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                 fail_frac=fail_frac, machine=facts, why=why, notes=run.notes,
                 digests=run.digests, span_table=table),
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
