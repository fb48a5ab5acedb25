"""Check that every quality metric and every round result is bit-identical
across benchmark runs at one seed, at the default seed and at a second one.

    python3 perfbench/determinism.py --seed 7

Each workload runs twice per seed as separate processes, each for a short
time, so each run does its minimum number of rounds.  Exits 1 when any run
fails or any two runs at one seed disagree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

QUALITY = ("mean_retained.greedy", "mean_retained.pipeline", "success_rate.greedy", "success_rate.pipeline")
WORKLOADS = ("mc_d1", "mc_multi", "cli_files")
REPEATS = 2
SECONDS = 1.0


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    with open(run.OUT / f"{workload}-seed{seed}-trace0.json", encoding="utf-8") as fh:
        result = json.load(fh)
    # a round's digest is keyed by the index of its inputs; repeats share it
    digests = sorted({d.split(":", 1)[1] for d in result["digests"]})
    return {
        "correct": result["correct"],
        "quality": {name: repr(result["metrics"][name]["value"]) for name in QUALITY},
        "digests": digests,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True, help="the second seed")
    args = ap.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        for seed in (run.DEFAULT_SEED, args.seed):
            runs = [one_run(workload, seed) for _ in range(REPEATS)]
            errors = [r["error"] for r in runs if "error" in r]
            same = not errors and all(
                r["quality"] == runs[0]["quality"] and r["digests"] == runs[0]["digests"] for r in runs
            )
            correct = not errors and all(r["correct"] for r in runs)
            ok &= same and correct
            verdict = "identical" if same else "DIFFERENT"
            print(f"{workload:10s} seed {seed:<8d} {REPEATS} runs: {verdict}, "
                  f"{'all correct' if correct else 'FAILED OPERATIONS'}")
            for err in errors:
                print(f"  {err}")
            if not errors:
                for r in runs:
                    print("  " + " ".join(f"{k}={v}" for k, v in r["quality"].items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
