import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from screenmatch import (
    ConfigError,
    ConstraintSpec,
    DistributionSpec,
    Instance,
    Item,
    PipelineConfig,
    ThresholdsPolicy,
    concentration_experiment,
    convergence_experiment,
    greedy_screen,
    learn_topm_thresholds,
    optimal_matching,
    quantile_policy_net,
    run_pipeline,
    run_trials,
    sample_instance,
)
import screenmatch.experiments as experiments
from screenmatch.experiments import (
    ALGORITHMS,
    CSV_COLUMNS,
    ExperimentConfig,
    _net_stats,
    trial_stats_row,
    write_aggregates_csv,
    write_records_jsonl,
)
from screenmatch.thresholds import ABOVE, screen_with_policy

from helpers import TIE_GRID, rand_items

D1 = DistributionSpec("single-property-uniform", 1)
DISJOINT2 = DistributionSpec("disjoint-properties-uniform", 2)
OVERLAP2 = DistributionSpec("overlap-bernoulli", 2, (0.6, 0.5))
OVERLAP3 = DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3))

# (dist, caps, n, delta, pipeline c0) of each pinned shape of trial records:
# C4's at a small n, and the disjoint d=2 and overlap d=3 benchmark shapes
RECORD_SHAPES = {
    "c4": (D1, (10,), 2000, 1e-3, 1.5),
    "disjoint-d2": (DISJOINT2, (2, 1), 500, 0.1, 1.0),
    "overlap-d3": (OVERLAP3, (2, 2, 2), 300, 0.1, 1.0),
}
# sha256 of the records of every algorithm on each shape
RECORDS_SHA256 = {
    "c4": "34f9d27fac3cfc83e29ea88cf8ee18e2f701dda0419732d634d5c34a6dfac868",
    "disjoint-d2": "f36481d0c3760116140f4bc66096756c20bc8e4c2a3afbdab0531dd33028a20f",
    "overlap-d3": "c0c264af7a454a8161abc472e0086743111ff0ff5f8729081b19749df52ffb6c",
}


def grid_net(d, ts=(ABOVE, 0.7, 0.3, 0.0)):
    """The product net of the thresholds ``ts`` on each of d properties."""
    return [ThresholdsPolicy(t) for t in itertools.product(ts, repeat=d)]


class _InProcessHelper:
    """A stand-in for a forked helper that runs its blocks in this process
    when its reply is read."""

    exitcode = 0

    def __init__(self, sent):
        self.sent, self.message = sent, None

    def send(self, message):
        if message is not None:
            self.sent.append([a[-2:] for a in message[1]])
        self.message = message

    def recv(self):
        return experiments._run_blocks(*self.message)

    def poll(self):
        return False  # it never dies

    def close(self):
        pass

    def join(self, timeout=None):
        pass


def count_forks(monkeypatch, fork=None):
    """Start from no helpers, with no CPU cap below 64 workers; returns the
    size of every helper set forked after, one entry per set.  ``fork``
    stands in for the real fork."""
    experiments._drop_pool()
    monkeypatch.setattr(experiments, "_cpus", lambda: 64)
    sets = []
    real = fork or experiments._fork_helper

    def counting(older):
        if older:
            sets[-1] += 1
        else:
            sets.append(1)
        return real(older)

    monkeypatch.setattr(experiments, "_fork_helper", counting)
    return sets


def fake_helpers(monkeypatch):
    """Run helper work in this process; returns the (start, stop) of every
    block each message hands a helper, and the sizes of the helper sets
    forked.  The fakes go with the patch."""
    sent = []

    def fork(older):
        helper = _InProcessHelper(sent)
        return helper, helper

    sets = count_forks(monkeypatch, fork)
    monkeypatch.setattr(experiments, "_pool", None)
    return sent, sets


def record_blocks(monkeypatch):
    """Record the (start, stop) of every trial block run in this process."""
    ran = []
    real = experiments._trial_block

    def recording(args):
        ran.append(args[-2:])
        return real(args)

    monkeypatch.setattr(experiments, "_trial_block", recording)
    return ran


def _helper_pids():
    return [proc.pid for proc, _ in experiments._pool[1]]


def _die_in_worker(parent_pid):
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)


def _worker_pid(_):
    return os.getpid()


def _raise_in_block(b):
    if b:
        raise ValueError(f"block {b} in {os.getpid()}")
    return b


def _gone(pid):
    """True once ``pid`` has exited: no such process, or a zombie that no
    one has reaped yet."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def count_gated_solves(monkeypatch):
    """Record the items each path step of the greedy pass sees: the
    optimum's real items and the arrival."""
    import screenmatch.greedy as greedy

    solves = []
    real = greedy._path_step

    def counting(held, arrival, caps):
        solves.append(sum(map(len, held)) + 1)
        return real(held, arrival, caps)

    monkeypatch.setattr(greedy, "_path_step", counting)
    return solves


def count_validated(monkeypatch):
    """Record the size of every ``validate_items`` pass a trial makes."""
    import screenmatch.core as core
    import screenmatch.matching as matching
    import screenmatch.thresholds as thresholds

    sizes = []
    real = core.validate_items

    def counting(items, spec):
        sizes.append(len(items))
        return real(items, spec)

    for mod in (core, matching, thresholds):
        monkeypatch.setattr(mod, "validate_items", counting)
    return sizes


def count_rule_passes(monkeypatch):
    """Record the size of every full pass of the item rules: the work past
    the return that spares an instance valid by construction."""
    import screenmatch.core as core

    sizes = []
    real = core._item_rules

    def counting(inst, spec):
        sizes.append(inst.n)
        return real(inst, spec)

    monkeypatch.setattr(core, "_item_rules", counting)
    return sizes


def greedy_cfg(**kw):
    base = dict(
        scenario="unit",
        dist=D1,
        spec=ConstraintSpec((2,)),
        n=100,
        delta=0.1,
        trials=10,
        seed=7,
        algorithm="greedy",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            greedy_cfg(algorithm="magic")

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            greedy_cfg(trials=0)

    def test_n_at_least_k(self):
        with pytest.raises(ConfigError):
            greedy_cfg(n=1)

    def test_policy_fixed_needs_policy(self):
        with pytest.raises(ConfigError):
            greedy_cfg(algorithm="policy-fixed")
        greedy_cfg(algorithm="policy-fixed", policy=ThresholdsPolicy((0.5,)))

    def test_policy_only_for_policy_fixed(self):
        with pytest.raises(ConfigError):
            greedy_cfg(policy=ThresholdsPolicy((0.5,)))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            greedy_cfg(dist=DistributionSpec("disjoint-properties-uniform", 2))

    def test_pipeline_needs_open_delta(self):
        with pytest.raises(ConfigError):
            greedy_cfg(algorithm="pipeline-exact-opt", delta=0.0)

    @pytest.mark.parametrize("algorithm", ["greedy", "pipeline-exact-opt"])
    @pytest.mark.parametrize("c0", [-5.0, math.nan, math.inf])
    def test_c0_must_be_finite_and_nonnegative(self, algorithm, c0):
        with pytest.raises(ConfigError, match="c0 must be"):
            greedy_cfg(algorithm=algorithm, c0=c0)


class TestRunTrials:
    def test_deterministic_records(self):
        cfg = greedy_cfg(trials=5)
        assert run_trials(cfg) == run_trials(cfg)

    def test_aggregates_recomputable_from_records(self):
        stats = run_trials(greedy_cfg(trials=30))
        rs = stats.records
        agg = stats.aggregates
        retained = [r.retained for r in rs]
        assert agg.mean_retained == pytest.approx(np.mean(retained))
        assert agg.std_retained == pytest.approx(np.std(retained, ddof=1))
        assert agg.min_retained == min(retained)
        assert agg.max_retained == max(retained)
        assert agg.success_rate == pytest.approx(
            sum(r.success for r in rs) / len(rs)
        )
        assert 0.0 <= agg.success_rate <= 1.0

    def test_single_trial_std_is_zero(self):
        stats = run_trials(greedy_cfg(trials=1))
        assert stats.aggregates.std_retained == 0.0

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # 2 -> 3 -> 2 forks one helper, replaces it with two, then reuses those
        monkeypatch.setattr(experiments, "_cpus", lambda: 64)
        counts = (1, 2, 3, 2)
        for trials in (7, 40):
            cfg = greedy_cfg(n=60, trials=trials)
            runs = [run_trials(cfg, workers=w) for w in counts]
            assert all(r == runs[0] for r in runs)
            opts = [
                concentration_experiment(D1, ConstraintSpec((2,)), 30, trials, 5, workers=w)
                for w in counts
            ]
            assert all(o == opts[0] for o in opts)
            for dist, caps in ((DISJOINT2, (2, 1)), (OVERLAP2, (1, 1))):
                spec = ConstraintSpec(caps)
                convs = [
                    convergence_experiment(
                        dist, spec, 20, trials, grid_net(2, (0.5, 0.0)), 5, workers=w
                    )
                    for w in counts
                ]
                assert all(c == convs[0] for c in convs)

    def test_a_later_call_reuses_the_pool(self, monkeypatch):
        started = count_forks(monkeypatch)
        cfg = greedy_cfg(n=60, trials=7)
        first = run_trials(cfg, workers=2)
        helpers = experiments._pool[1]
        assert run_trials(cfg, workers=2) == first
        concentration_experiment(D1, ConstraintSpec((2,)), 30, 7, 5, workers=2)
        assert started == [1]
        assert experiments._pool[1] is helpers

    def test_a_call_needing_more_workers_replaces_the_pool(self, monkeypatch):
        started = count_forks(monkeypatch)
        cfg = greedy_cfg(n=60, trials=7)
        run_trials(cfg, workers=2)
        (small, _), = experiments._pool[1]
        assert run_trials(cfg, workers=3) == run_trials(cfg)
        assert started == [1, 2]
        small.join(10.0)
        assert small.exitcode == 0  # stopped, not killed
        # a smaller need keeps the bigger set
        run_trials(cfg, workers=2)
        assert started == [1, 2]

    def test_a_killed_worker_fails_its_call_only(self, monkeypatch):
        started = count_forks(monkeypatch)
        cfg = greedy_cfg(n=60, trials=7)
        run_trials(cfg, workers=2)
        with pytest.raises(BrokenProcessPool):
            experiments._map_blocks(_die_in_worker, [os.getpid()] * 2, 2)
        assert experiments._pool is None
        assert run_trials(cfg, workers=2) == run_trials(cfg)
        assert started == [1, 1]

    def test_an_idle_worker_death_spares_the_next_call(self, monkeypatch):
        started = count_forks(monkeypatch)
        cfg = greedy_cfg(n=60, trials=7)
        run_trials(cfg, workers=2)
        # the caller works block 0 itself, and the helper block 1
        caller, pid = experiments._map_blocks(_worker_pid, [0, 1], 2)
        assert caller == os.getpid() and _helper_pids() == [pid]
        os.kill(pid, signal.SIGKILL)
        # wait for the exit, without reaping it
        with contextlib.suppress(ChildProcessError):  # reaped already
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        assert run_trials(cfg, workers=2) == run_trials(cfg)
        assert started == [1, 1]

    def test_a_block_raising_in_a_helper_fails_its_call_only(self, monkeypatch):
        started = count_forks(monkeypatch)
        cfg = greedy_cfg(n=60, trials=7)
        run_trials(cfg, workers=2)
        with pytest.raises(ValueError, match=f"block 1 in {_helper_pids()[0]}"):
            experiments._map_blocks(_raise_in_block, [0, 1], 2)
        # the same helper, its pipe still in step
        assert run_trials(cfg, workers=2) == run_trials(cfg)
        assert started == [1]

    def test_blocks_follow_the_worker_count(self, monkeypatch):
        sent, started = fake_helpers(monkeypatch)
        ran = record_blocks(monkeypatch)
        cfg = greedy_cfg(n=60, trials=7)
        assert run_trials(cfg, workers=2) == run_trials(cfg)
        # the caller works (0, 4) before it reads the helper's (4, 7)
        assert started == [1] and sent == [[(4, 7)]]
        assert ran == [(0, 4), (4, 7), (0, 7)]

    def test_every_experiment_runs_its_blocks_through_the_trial_block(self, monkeypatch):
        # perfbench counts blocks by wrapping _trial_block
        fake_helpers(monkeypatch)
        ran = record_blocks(monkeypatch)
        run_trials(greedy_cfg(n=60, trials=7), workers=3)
        assert ran == [(0, 3), (3, 6), (6, 7)]
        ran.clear()
        concentration_experiment(D1, ConstraintSpec((1,)), 5, 7, 1, workers=3)
        assert ran == [(0, 3), (3, 6), (6, 7)]
        ran.clear()
        net = grid_net(1)
        convergence_experiment(D1, ConstraintSpec((1,)), 5, 300, net, 1, 1, workers=3)
        # calibration, then evaluation
        assert ran == [(0, 256), (256, 300)] * 2

    def test_pool_never_outnumbers_the_blocks(self, monkeypatch):
        sent, started = fake_helpers(monkeypatch)
        run_trials(greedy_cfg(n=60, trials=3), workers=64)
        concentration_experiment(D1, ConstraintSpec((1,)), 5, 3, 1, workers=64)
        assert started == [2]
        assert sent == [[(1, 2)], [(2, 3)]] * 2

    def test_helpers_are_capped_at_the_cpus(self, monkeypatch):
        sent, started = fake_helpers(monkeypatch)
        monkeypatch.setattr(experiments, "_cpus", lambda: 2)
        cfg = greedy_cfg(n=10, trials=1000)
        stats = run_trials(cfg, workers=1000)
        # 1000 blocks of one trial: the caller works the even ones, one helper the odd ones
        assert started == [1] and sent == [[(b, b + 1) for b in range(1, 1000, 2)]]
        assert all(run_trials(cfg, workers=w) == stats for w in (1, 2, 4, 64))
        assert started == [1]

    def test_helpers_go_with_their_parent(self, tmp_path):
        # a run at 3 workers prints its helpers' pids, then exits or is
        # killed while they idle; either way no helper outlives it
        script = (
            "import os, signal, sys\n"
            "import screenmatch.experiments as ex\n"
            "from screenmatch import ConstraintSpec, DistributionSpec, run_trials\n"
            "cfg = ex.ExperimentConfig('unit', DistributionSpec('single-property-uniform', 1),"
            " ConstraintSpec((2,)), 60, 0.1, 7, 7)\n"
            "ex._cpus = lambda: 64\n"
            "run_trials(cfg, workers=3)\n"
            "print(*(proc.pid for proc, _ in ex._pool[1]), flush=True)\n"
            "if sys.argv[1] == 'kill':\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        for mode, code in (("exit", 0), ("kill", -signal.SIGKILL)):
            # the helpers hold the child's stdout, so a helper that stays
            # makes the run time out instead of returning
            done = subprocess.run(
                [sys.executable, "-c", script, mode],
                stdout=subprocess.PIPE, env=env, timeout=60, cwd=tmp_path,
            )
            assert done.returncode == code
            pids = [int(p) for p in done.stdout.split()]
            assert len(pids) == 2
            deadline = time.monotonic() + 10.0
            while not all(map(_gone, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(_gone, pids)), mode

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        net = [ThresholdsPolicy((0.0,))]
        with pytest.raises(ConfigError, match="workers"):
            run_trials(greedy_cfg(), workers=workers)
        with pytest.raises(ConfigError, match="workers"):
            concentration_experiment(D1, ConstraintSpec((1,)), 5, 3, 1, workers=workers)
        with pytest.raises(ConfigError, match="workers"):
            convergence_experiment(D1, ConstraintSpec((1,)), 10, 5, net, 1, workers=workers)

    @pytest.mark.parametrize("algorithm", ["greedy", "pipeline-exact-opt", "policy-fixed"])
    def test_a_trial_makes_no_full_rule_pass(self, monkeypatch, algorithm):
        # a trial checks only streams and trains it sampled, which are valid by
        # construction; policy-fixed's policy keeps the whole stream
        policy = ThresholdsPolicy((0.0,)) if algorithm == "policy-fixed" else None
        sizes = count_rule_passes(monkeypatch)
        cfg = greedy_cfg(
            spec=ConstraintSpec((3,)), n=300, trials=3, algorithm=algorithm, policy=policy
        )
        run_trials(cfg)
        assert sizes == []

    def test_greedy_checks_per_trial_do_not_grow_with_the_solves(self, monkeypatch):
        # no full rule pass at all: not the full-stream solve's, nor any gated solve's
        solves = count_gated_solves(monkeypatch)
        sizes = count_rule_passes(monkeypatch)
        passes = []
        for delta in (0.0, 0.5):
            solves.clear()
            sizes.clear()
            spec = ConstraintSpec((2, 2))
            run_trials(greedy_cfg(dist=OVERLAP2, spec=spec, n=300, trials=3, delta=delta))
            passes.append(len(sizes))
            assert len(solves) > 3 * 3
        assert passes == [0, 0]

    def test_entry_points_check_a_hand_built_stream_once(self, monkeypatch):
        sizes = count_rule_passes(monkeypatch)
        spec = ConstraintSpec((3,))
        stream, train = (
            Instance.from_values(sample_instance(D1, n, seed).values.copy())
            for n, seed in ((50, 1), (40, 2))
        )
        calls = [
            lambda: optimal_matching(stream, spec),
            lambda: greedy_screen(stream, spec, 10),
            lambda: learn_topm_thresholds(stream, spec, [5]),
        ]
        for call in calls:
            sizes.clear()
            call()
            assert sizes == [50]
        sizes.clear()
        run_pipeline(train, stream, spec, PipelineConfig(0.1))
        assert sorted(sizes) == [40, 50]

    @pytest.mark.parametrize(
        "dist, caps", [(D1, (3,)), (DISJOINT2, (2, 1))], ids=["d1", "disjoint-d2"]
    )
    def test_single_property_greedy_makes_no_gated_solve(self, monkeypatch, dist, caps):
        solves = count_gated_solves(monkeypatch)
        cfg = greedy_cfg(dist=dist, spec=ConstraintSpec(caps), n=300, trials=3, delta=0.0)
        assert run_trials(cfg).aggregates.mean_retained > sum(caps)
        assert solves == []

    @pytest.mark.parametrize("algorithm", ["greedy", "pipeline-exact-opt"])
    def test_d1_trials_never_build_the_stream_as_items(self, monkeypatch, algorithm):
        from screenmatch import Instance

        def refuse(self):
            raise AssertionError(f"built {self.n} Item objects")

        monkeypatch.setattr(Instance, "_build_items", refuse)
        cfg = greedy_cfg(spec=ConstraintSpec((3,)), n=2000, trials=3, algorithm=algorithm)
        stats = run_trials(cfg)
        assert len(stats.records) == 3

    def test_solver_and_greedy_paths_build_no_item(self, monkeypatch):
        # the solver, the greedy pass and a pipeline trial run on value rows
        import screenmatch.core as core
        from screenmatch.greedy import Arrivals, screen_entries
        from screenmatch.matching import _solve

        built = []
        real = core.Item.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(core.Item, "__init__", counting)
        dist = DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3))
        spec = ConstraintSpec((2, 2, 2))
        inst = sample_instance(dist, 1000, 31)
        assert _solve(inst, spec).value > 0
        assert len(built) == 0, "_solve"
        kept, _, _ = screen_entries(Arrivals(inst.ids, inst.columns(3)), spec, 16)
        assert len(kept) > spec.k
        assert len(built) == 0, "screen_entries"
        cfg = greedy_cfg(dist=dist, spec=spec, n=1000, trials=1, algorithm="pipeline-exact-opt")
        assert experiments._one_trial(cfg, 0).retained > 0
        assert len(built) == 0, "pipeline-exact-opt trial"

    @pytest.mark.parametrize("algorithm", ["greedy", "pipeline-exact-opt", "policy-fixed"])
    def test_identical_solutions_skip_the_exact_values(self, monkeypatch, algorithm):
        # with continuous values a trial succeeds only when its solution is
        # the full-stream one, so only failed trials need the exact values
        import screenmatch.experiments as experiments
        import screenmatch.matching as matching
        import screenmatch.pipeline as pipeline

        calls = []
        real = matching.exact_solution_value

        def counting(items, solution):
            calls.append(solution)
            return real(items, solution)

        for mod in (matching, experiments, pipeline):
            monkeypatch.setattr(mod, "exact_solution_value", counting, raising=False)
        policy = ThresholdsPolicy((0.9,)) if algorithm == "policy-fixed" else None
        cfg = greedy_cfg(
            spec=ConstraintSpec((3,)), n=300, trials=8, algorithm=algorithm, policy=policy
        )
        records = run_trials(cfg).records
        failed = sum(not r.success for r in records)
        assert failed < len(records)
        assert len(calls) == 2 * failed

    def test_greedy_mean_retention_matches_harmonic_sum(self):
        # k=1, warmup 0: expectation is H_n
        n, trials = 200, 400
        cfg = greedy_cfg(spec=ConstraintSpec((1,)), n=n, delta=0.0, trials=trials, seed=29)
        stats = run_trials(cfg)
        h_n = sum(1 / i for i in range(1, n + 1))
        assert stats.aggregates.mean_retained == pytest.approx(h_n, abs=0.5)

    def test_pipeline_keeps_fewer_than_greedy(self):
        spec = ConstraintSpec((5,))
        shared = dict(dist=D1, spec=spec, n=1000, delta=0.01, trials=60, seed=88)
        g = run_trials(ExperimentConfig(scenario="g", algorithm="greedy", **shared))
        p = run_trials(
            ExperimentConfig(scenario="p", algorithm="pipeline-exact-opt", **shared)
        )
        assert p.aggregates.mean_retained < g.aggregates.mean_retained
        assert p.records[0].retained_after_policy is not None

    def test_pipeline_records_the_full_optimum_value(self):
        # both algorithms screen the same stream in a trial.  Trial 285 keeps
        # less than half the optimum, where value + (opt - value) rounds off opt
        shared = dict(spec=ConstraintSpec((3,)), n=6, delta=0.9, trials=400, c0=0.0)
        g, p = (
            run_trials(greedy_cfg(algorithm=a, **shared)).records
            for a in ("greedy", "pipeline-exact-opt")
        )
        assert p[285].value < p[285].opt_value / 2
        assert p[285].opt_value == g[285].opt_value == 1.948408854460374
        assert [r.opt_value for r in p] == [r.opt_value for r in g]

    def test_policy_fixed_algorithm(self):
        cfg = greedy_cfg(
            algorithm="policy-fixed", policy=ThresholdsPolicy((0.8,)), trials=20
        )
        stats = run_trials(cfg)
        # uniform values: about a fifth of the stream passes t=0.8
        assert 0.1 * cfg.n < stats.aggregates.mean_retained < 0.3 * cfg.n


class TestConcentration:
    def test_degenerate_single_item(self):
        # k=1, n=1: OPT is one uniform draw; std must match 1/sqrt(12)
        stats = concentration_experiment(D1, ConstraintSpec((1,)), 1, 2000, 5)
        assert stats.std == pytest.approx(1 / math.sqrt(12), abs=0.01)
        assert stats.mean == pytest.approx(0.5, abs=0.03)

    def test_tail_rows_dominated_by_bound(self):
        stats = concentration_experiment(D1, ConstraintSpec((3,)), 60, 800, 6)
        for row in stats.tail:
            se = math.sqrt(row.bound * (1 - row.bound) / stats.trials)
            assert row.exceed_rate <= row.bound + 3 * max(se, 1e-3)
            assert row.bound == pytest.approx(row.delta_prime)

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            concentration_experiment(D1, ConstraintSpec((1,)), 5, 0, 1)

    def test_n_below_k_is_refused(self):
        with pytest.raises(ConfigError, match=r"^n must be an integer >= k=3, got 2$"):
            concentration_experiment(D1, ConstraintSpec((3,)), 2, 5, 1)


class TestConvergence:
    def _uniform_train(self, n, seed):
        rng = np.random.default_rng(seed)
        return Instance(tuple(Item(i, {0: float(v)}) for i, v in enumerate(rng.random(n))))

    @pytest.mark.parametrize(
        "caps, max_props",
        [((2,), 1), ((2, 1), 1), ((1, 1), None), ((2, 1, 1), None)],
        ids=["d1", "disjoint-d2", "overlap-d2", "overlap-d3"],
    )
    def test_kernel_matches_screen_with_policy(self, caps, max_props):
        # thresholds on the tie grid meet equal values, which must clear
        spec = ConstraintSpec(caps)
        d = spec.d
        net = grid_net(d, (ABOVE, 1.0, 0.5, 0.0, 0.6))
        thr = np.array([policy.t for policy in net])
        rng = np.random.default_rng(23)
        for trial in range(4):
            grid = TIE_GRID if trial % 2 == 0 else None
            inst = Instance(rand_items(rng, 30, d, value_grid=grid, max_props=max_props))
            counts, per_prop, vals = _net_stats(inst, spec, thr)
            for i, policy in enumerate(net):
                _, ref = screen_with_policy(policy, inst, spec)
                assert counts[i] == ref.total
                assert per_prop[i * d : (i + 1) * d].tolist() == list(ref.per_property)
                if d > 1 and max_props == 1:
                    # prefix-sum order, where the solver takes an exactly rounded sum
                    assert abs(vals[i] - ref.value) <= 1e-12
                else:
                    # at d=1 with two slots the prefix sum is exactly rounded too
                    assert vals[i] == ref.value

    @pytest.mark.parametrize("dist, caps", [(DISJOINT2, (2, 1)), (OVERLAP2, (1, 1))])
    def test_trials_make_no_check_per_policy(self, monkeypatch, dist, caps):
        # the sampled streams need none: dist and spec agree on d
        sizes = count_validated(monkeypatch)
        convergence_experiment(dist, ConstraintSpec(caps), 50, 3, grid_net(2), 2)
        assert sizes == []

    @pytest.mark.parametrize(
        "kw, what",
        [
            ({"calibration_factor": 0}, "calibration factor"),
            ({"calibration_factor": -1}, "calibration factor"),
            ({"n": 1}, "n must be"),
            ({"dist": DISJOINT2}, "distribution has d=2"),
        ],
    )
    def test_bad_arguments_rejected(self, kw, what):
        args = dict(dist=D1, spec=ConstraintSpec((3,)), n=10, trials=5, net=grid_net(1), seed=1)
        with pytest.raises(ConfigError, match=what):
            convergence_experiment(**{**args, **kw})

    def test_single_policy_net(self):
        net = [ThresholdsPolicy((0.0,))]
        stats = convergence_experiment(D1, ConstraintSpec((2,)), 50, 40, net, 3)
        # the zero policy keeps the whole stream, so counts never deviate
        assert stats.count_dev["max"] == 0.0
        assert stats.all_zero_retained_mean == 50.0
        assert stats.net_size == 1

    def test_estimator_sanity_vs_concentration(self):
        # the all-zero policy's expected value equals E[OPT]
        spec = ConstraintSpec((3,))
        n, trials = 100, 1500
        conc = concentration_experiment(D1, spec, n, trials, 41)
        train = self._uniform_train(400, 42)
        net = quantile_policy_net(train, spec, n)
        conv = convergence_experiment(D1, spec, n, trials, net, 43)
        se = math.sqrt(
            (conc.std / math.sqrt(trials)) ** 2
            + (conv.all_zero_value_std / math.sqrt(trials)) ** 2
        )
        assert abs(conv.all_zero_value_mean - conc.mean) <= 2 * se

    def test_empty_net_rejected(self):
        with pytest.raises(ConfigError):
            convergence_experiment(D1, ConstraintSpec((1,)), 10, 5, [], 1)

    def test_net_dimension_checked(self):
        with pytest.raises(ConfigError):
            convergence_experiment(
                D1, ConstraintSpec((1,)), 10, 5, [ThresholdsPolicy((0.0, 0.0))], 1
            )


class TestLowerBound:
    def test_d1_has_single_class(self):
        dist = DistributionSpec("disjoint-properties-uniform", 1)
        inst = sample_instance(dist, 500, 9)
        assert all(set(item.props) == {0} for item in inst)
        mean = np.mean([item.props[0] for item in inst])
        assert mean == pytest.approx(0.5, abs=0.06)

    def test_class_frequencies(self):
        dist = DistributionSpec("disjoint-properties-uniform", 4)
        inst = sample_instance(dist, 100_000, 9)
        freq = sum(1 for item in inst if 0 in item.props) / inst.n
        assert freq == pytest.approx(0.25, abs=0.01)

    def test_section_scenario_config_is_valid(self):
        d = 3
        cfg = ExperimentConfig(
            scenario="lb",
            dist=DistributionSpec("disjoint-properties-uniform", d),
            spec=ConstraintSpec((1,) * d),
            n=30,
            delta=0.1,
            trials=2,
            seed=1,
        )
        run_trials(cfg)


class TestEmission:
    def test_csv_header_and_blank_cells(self):
        cfg = greedy_cfg(trials=3)
        stats = run_trials(cfg)
        buf = io.StringIO()
        write_aggregates_csv(buf, [trial_stats_row(cfg, stats)])
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "scenario,n,k,d,delta,trials,mean_retained,std_retained,"
            "success_rate,mean_opt,std_opt,max_dev_count,max_dev_value"
        )
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[-2:] == ["", ""]

    def test_records_jsonl_parses(self):
        stats = run_trials(greedy_cfg(trials=4))
        buf = io.StringIO()
        write_records_jsonl(buf, stats.records)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["trial"] for r in rows] == [0, 1, 2, 3]
        assert all(isinstance(r["success"], bool) for r in rows)

    @pytest.mark.parametrize("shape", sorted(RECORD_SHAPES))
    def test_trial_records_are_pinned(self, shape):
        dist, caps, n, delta, c0 = RECORD_SHAPES[shape]
        h = hashlib.sha256()
        for algorithm in ALGORITHMS:
            policy = ThresholdsPolicy((0.8,) * len(caps)) if algorithm == "policy-fixed" else None
            cfg = greedy_cfg(
                dist=dist, spec=ConstraintSpec(caps), n=n, delta=delta, trials=8,
                algorithm=algorithm, c0=c0, policy=policy,
            )
            buf = io.StringIO()
            write_records_jsonl(buf, run_trials(cfg).records)
            h.update(buf.getvalue().encode())
        assert h.hexdigest() == RECORDS_SHA256[shape]
