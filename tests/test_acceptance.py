"""Acceptance gate.  Each test covers one numbered criterion at its stated
tolerance and appends a PASS/FAIL line to the run summary.

Statistical criteria run at fixed seeds, so every verdict here is
reproducible bit-for-bit.
"""

import contextlib
import hashlib
import math
import time

import numpy as np

import conftest
from screenmatch import (
    ConstraintSpec,
    DistributionSpec,
    ExperimentConfig,
    Instance,
    Item,
    concentration_experiment,
    convergence_experiment,
    derive_seed,
    greedy_screen,
    learn_optimal_thresholds,
    optimal_matching,
    quantile_policy_net,
    run_pipeline,
    run_trials,
    sample_instance,
    screen_with_policy,
    warmup_length,
)
from screenmatch.cli import run_cli
from screenmatch.pipeline import PipelineConfig

from helpers import TIE_GRID, brute_force_matching, rand_items, rand_spec

D1 = DistributionSpec("single-property-uniform", 1)

# Monte Carlo gates use two processes; their results do not depend on the
# worker count (C9 and test_experiments assert it)
WORKERS = 2


@contextlib.contextmanager
def criterion(cid: str, desc: str):
    detail = {}
    try:
        yield detail
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"[FAIL] {cid}: {desc}")
        raise
    note = f" ({detail['note']})" if "note" in detail else ""
    conftest.ACCEPTANCE_LINES.append(f"[PASS] {cid}: {desc}{note}")


def test_c1_solver_oracle_equivalence():
    with criterion("C1", "solver equals brute-force oracle on 500 random instances") as out:
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for i in range(500):
            spec = rand_spec(rng, d_max=3, k_max=4)
            n = int(rng.integers(0, 9))
            grid = TIE_GRID if i % 3 == 0 else None
            items = rand_items(rng, n, spec.d, value_grid=grid)
            assert optimal_matching(items, spec) == brute_force_matching(items, spec)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        out["note"] = f"500/500 identical in {elapsed:.1f}s"


def test_c2_greedy_success_probability():
    with criterion("C2", "greedy recovers the optimum in >= 0.86 of 500 trials") as out:
        spec = ConstraintSpec((5,))
        n, delta, trials = 1000, 0.1, 500
        start = time.perf_counter()
        cfg = ExperimentConfig(
            scenario="c2", dist=D1, spec=spec, n=n, delta=delta, trials=trials, seed=2002
        )
        stats = run_trials(cfg, workers=WORKERS)
        elapsed = time.perf_counter() - start
        floor = 0.90 - 3 * math.sqrt(0.1 * 0.9 / trials)
        assert stats.aggregates.success_rate >= floor
        assert elapsed < 120.0
        out["note"] = f"rate {stats.aggregates.success_rate:.3f} >= {floor:.3f}, {elapsed:.0f}s"


def test_c3_greedy_expected_retention():
    with criterion("C3", "greedy retention matches the harmonic-sum law") as out:
        h = lambda m: sum(1 / i for i in range(1, m + 1))
        cfg1 = ExperimentConfig(
            scenario="c3a", dist=D1, spec=ConstraintSpec((1,)), n=1000,
            delta=0.0, trials=1000, seed=3003,
        )
        mean1 = run_trials(cfg1, workers=WORKERS).aggregates.mean_retained
        assert abs(mean1 - h(1000)) <= 0.3

        cfg10 = ExperimentConfig(
            scenario="c3b", dist=D1, spec=ConstraintSpec((10,)), n=1000,
            delta=0.0, trials=1000, seed=3003,
        )
        mean10 = run_trials(cfg10, workers=WORKERS).aggregates.mean_retained
        target = 10 * (h(1000) - h(10)) + 10
        assert abs(mean10 - target) <= 0.15 * target
        out["note"] = f"k=1 mean {mean1:.3f} vs {h(1000):.3f}; k=10 mean {mean10:.2f} vs {target:.2f}"


def test_c4_pipeline_beats_greedy():
    with criterion(
        "C4", "exact-opt pipeline keeps < 0.8x greedy retention at matched success"
    ) as out:
        spec = ConstraintSpec((10,))
        n, delta, trials, seed = 10_000, 1e-3, 200, 4004
        # c0 calibrated once on this reference scenario and frozen; c0=1
        # leaves only ~1.5% per-trial slack-shortfall headroom, this sits
        # far inside the 0.98 bar
        c0 = 1.5
        shared = dict(dist=D1, spec=spec, n=n, delta=delta, trials=trials, seed=seed)
        g = run_trials(
            ExperimentConfig(scenario="c4-greedy", algorithm="greedy", **shared), workers=WORKERS
        )
        p = run_trials(
            ExperimentConfig(
                scenario="c4-pipe", algorithm="pipeline-exact-opt", c0=c0, **shared
            ),
            workers=WORKERS,
        )
        ratio = p.aggregates.mean_retained / g.aggregates.mean_retained
        assert ratio < 0.8
        assert p.aggregates.success_rate >= 0.98
        out["note"] = (
            f"retention ratio {ratio:.3f}, pipeline success {p.aggregates.success_rate:.3f}"
        )


def test_c5_learned_thresholds_exact_on_train():
    with criterion("C5", "learned thresholds retain exactly k at OPT on 200 trains") as out:
        rng = np.random.default_rng(5005)
        done = 0
        while done < 200:
            spec = rand_spec(rng, d_max=3, k_max=4)
            train = Instance(tuple(rand_items(rng, 5 * spec.k + 3, spec.d)))
            values = [v for item in train for v in item.props.values()]
            if len(set(values)) != len(values):
                continue
            full = optimal_matching(train.items, spec)
            if len(full.real_ids()) != spec.k:
                continue
            policy = learn_optimal_thresholds(train, spec)
            retained, stats = screen_with_policy(policy, train, spec)
            assert len(retained) == spec.k
            assert abs(stats.value - full.value) <= 1e-9
            done += 1
        out["note"] = "200/200 exact"


def test_c6_opt_concentration():
    with criterion("C6", "OPT mean in [4.80, 4.90] and tails under the bound") as out:
        stats = concentration_experiment(D1, ConstraintSpec((5,)), 100, 2000, 6006)
        assert 4.80 <= stats.mean <= 4.90
        for row in stats.tail:
            se = math.sqrt(max(row.bound * (1 - row.bound), 1e-12) / stats.trials)
            assert row.exceed_rate <= row.bound + 3 * se
        out["note"] = f"mean {stats.mean:.4f}, all {len(stats.tail)} tail rows dominated"


def test_c7_uniform_convergence_sqrt_k_scaling():
    with criterion("C7", "count deviation scales like sqrt(k); fitted c0 <= 4") as out:
        results = {}
        for k in (20, 80):
            spec = ConstraintSpec((k,))
            n = 100 * k
            train = sample_instance(D1, n, derive_seed(7007, "net-train", k))
            net = quantile_policy_net(train, spec, n)
            results[k] = convergence_experiment(
                D1, spec, n, 500, net, derive_seed(7007, "run", k)
            )
        ratio = results[80].count_dev["p95"] / results[20].count_dev["p95"]
        assert ratio <= 2.6
        for k in (20, 80):
            assert results[k].fitted_c0_value <= 4.0
        out["note"] = (
            f"p95 ratio {ratio:.2f}, fitted c0 "
            f"{results[20].fitted_c0_value:.2f}/{results[80].fitted_c0_value:.2f}"
        )


def test_c8_vc_shattering_probe():
    with criterion("C8", "no threshold drops a higher value while keeping a lower") as out:
        rng = np.random.default_rng(8008)
        grid = np.linspace(0.0, 1.0, 100)
        violations = 0
        for _ in range(3):  # one batch per property of a d=3 family
            pairs = rng.random((10_000, 2))
            lo = pairs.min(axis=1)
            hi = pairs.max(axis=1)
            keeps_lo = lo[:, None] >= grid[None, :]
            keeps_hi = hi[:, None] >= grid[None, :]
            violations += int(np.count_nonzero(keeps_lo & ~keeps_hi))
        assert violations == 0
        out["note"] = "0 violations over 3x10^4 pairs x 100 thresholds"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c9_determinism_suite(tmp_path):
    with criterion("C9", "seeded commands are bit-identical, workers 1 vs 4") as out:
        from screenmatch import write_constraint_spec, write_distribution_spec

        dist = tmp_path / "dist.json"
        spec = tmp_path / "spec.json"
        with open(dist, "w") as fh:
            write_distribution_spec(D1, fh)
        with open(spec, "w") as fh:
            write_constraint_spec(ConstraintSpec((2,)), fh)

        checked = []

        a, b = tmp_path / "g1.jsonl", tmp_path / "g2.jsonl"
        for path in (a, b):
            assert run_cli(["gen", "--dist", str(dist), "--n", "500", "--seed", "11",
                            "--out", str(path)]) == 0
        assert _digest(a) == _digest(b)
        checked.append("gen")

        # 600 trials spans several scheduling blocks
        outs = []
        for tag, workers in (("w1", "1"), ("w4", "4"), ("w1b", "1")):
            csv = tmp_path / f"t_{tag}.csv"
            rec = tmp_path / f"t_{tag}.jsonl"
            assert run_cli([
                "trials", "--dist", str(dist), "--spec", str(spec),
                "--n", "120", "--trials", "600", "--delta", "0.1", "--seed", "12",
                "--workers", workers, "--records", str(rec), "--out", str(csv),
            ]) == 0
            outs.append((_digest(csv), _digest(rec)))
        assert outs[0] == outs[1] == outs[2]
        checked.append("trials")

        pair = []
        for tag, workers in (("w1", "1"), ("w4", "4")):
            path = tmp_path / f"conc_{tag}.json"
            assert run_cli([
                "concentration", "--dist", str(dist), "--spec", str(spec),
                "--n", "80", "--trials", "600", "--seed", "13",
                "--workers", workers, "--out", str(path),
            ]) == 0
            pair.append(_digest(path))
        assert pair[0] == pair[1]
        checked.append("concentration")

        pair = []
        for tag, workers in (("w1", "1"), ("w4", "4")):
            path = tmp_path / f"conv_{tag}.json"
            assert run_cli([
                "converge", "--dist", str(dist), "--spec", str(spec),
                "--n", "100", "--trials", "300", "--seed", "14",
                "--workers", workers, "--out", str(path),
            ]) == 0
            pair.append(_digest(path))
        assert pair[0] == pair[1]
        checked.append("converge")

        out["note"] = "identical digests for " + ", ".join(checked)


def test_c10_greedy_success_at_d_above_one():
    with criterion("C10", "greedy success clears the C2 union bound at d = 2 and d = 3") as out:
        delta, seed = 0.1, 10010
        shapes = (
            ("disjoint", DistributionSpec("disjoint-properties-uniform", 2), (2, 1), 500, 400),
            (
                "overlap",
                DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3)),
                (1, 1, 1),
                200,
                200,
            ),
        )
        notes = []
        start = time.perf_counter()
        for name, dist, caps, n, trials in shapes:
            cfg = ExperimentConfig(
                scenario=f"c10-{name}", dist=dist, spec=ConstraintSpec(caps), n=n,
                delta=delta, trials=trials, seed=seed,
            )
            rate = run_trials(cfg, workers=WORKERS).aggregates.success_rate
            floor = 1 - delta - 3 * math.sqrt(delta * (1 - delta) / trials)
            assert rate >= floor
            notes.append(f"{name} {rate:.3f} >= {floor:.3f}")
        out["note"] = ", ".join(notes) + f", {time.perf_counter() - start:.0f}s"
