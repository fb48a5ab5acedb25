import json
import math

import numpy as np
import pytest

from screenmatch import (
    ConfigError,
    ConstraintSpec,
    DistributionSpec,
    Instance,
    Item,
    coverage_rank,
    derive_seed,
    greedy_screen,
    learn_topm_thresholds,
    optimal_matching,
    run_pipeline,
    sample_instance,
    screen_with_policy,
    warmup_length,
)
from screenmatch.greedy import Arrivals, screen_entries

from helpers import rand_instance

TWO_ITEMS = Instance((Item(0, {0: 0.9, 1: 0.8}), Item(1, {1: 0.5})))
SPEC_11 = ConstraintSpec((1, 1))


class TestConfig:
    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_delta_open_interval(self, delta):
        # refused first, before the stream (here of the wrong width) is checked
        bad_stream = Instance((Item(0, {2: 0.5}),))
        with pytest.raises(ConfigError, match=rf"^delta must lie in \(0, 1\), got {delta!r}$"):
            run_pipeline(TWO_ITEMS, bad_stream, SPEC_11, delta)

    def test_policy_takes_the_coverage_rank_and_the_pass_warmup_0(self, monkeypatch):
        # the whole delta buys the rank
        dist = DistributionSpec("overlap-bernoulli", 2, (0.6, 0.5))
        spec, n, delta = ConstraintSpec((2, 1)), 2000, 0.9
        train, stream = (sample_instance(dist, n, seed) for seed in (31, 32))
        m = coverage_rank(n, n, spec.k, spec.d, delta)
        assert m > spec.k and warmup_length(n, spec.k, delta) > 0
        passes = []

        def keeping(entries, spec, warmup):
            out = screen_entries(entries, spec, warmup)
            passes.append((entries, warmup, out[0]))
            return out

        monkeypatch.setattr("screenmatch.pipeline.screen_entries", keeping)
        result = run_pipeline(train, stream, spec, delta)
        policy = learn_topm_thresholds(train, spec, [m] * spec.d)
        assert result.policy == policy
        survivors, _ = screen_with_policy(policy, stream)
        kept, final = screen_entries(
            Arrivals(survivors.ids, survivors.columns(spec.d)), spec, 0
        )
        ((entries, used, seen),) = passes
        assert used == 0
        assert np.array_equal(entries.pos, survivors.ids)
        assert seen == kept and result.retained_final == len(kept)
        assert result.final_solution == final


class TestSpecExamples:
    def test_exact_opt_identity_reduction(self):
        # empty training set degrades the policy to all-zeros, so every item
        # survives; the pass over them at warmup 0 is plain greedy
        rng = np.random.default_rng(15)
        stream = rand_instance(rng, 40, 2)
        spec = ConstraintSpec((2, 1))
        result = run_pipeline(Instance(()), stream, spec, 0.01)
        assert result.policy.t == (0.0, 0.0)
        assert result.retained_after_policy == stream.n
        plain = greedy_screen(stream, spec, 0)
        assert result.retained_final == len(plain.retained_ids)
        assert result.final_solution == plain.final_solution
        # and it keeps every item of the survivors' optimum
        best = optimal_matching(stream, spec)
        assert set(best.real_ids()) <= set(plain.retained_ids)
        assert result.final_solution == best


class TestStructuralInvariants:
    def test_filter_composition_and_counts(self):
        rng = np.random.default_rng(23)
        dist = DistributionSpec("disjoint-properties-uniform", 2)
        spec = ConstraintSpec((2, 2))
        for t in range(10):
            train = sample_instance(dist, 150, derive_seed(50, "train", t))
            stream = sample_instance(dist, 150, derive_seed(50, "stream", t))
            result = run_pipeline(train, stream, spec, 0.1)
            thr = result.policy.t
            passing = {
                item.id for item in stream if any(v >= thr[p] for p, v in item.props.items())
            }
            final_ids = set(result.final_solution.real_ids())
            assert result.retained_final <= result.retained_after_policy
            assert result.retained_after_policy == len(passing)
            assert final_ids <= passing
            assert result.value_gap >= -1e-9

    def test_exact_opt_soundness_condition(self):
        # top-k per property passes the policy => full-stream optimum recovered
        rng = np.random.default_rng(77)
        dist = DistributionSpec("overlap-bernoulli", 2, membership=(0.7, 0.7))
        spec = ConstraintSpec((2, 1))
        checked = 0
        t = 0
        while checked < 20:
            t += 1
            train = sample_instance(dist, 100, derive_seed(60, "train", t))
            stream = sample_instance(dist, 100, derive_seed(60, "stream", t))
            result = run_pipeline(train, stream, spec, 0.1)
            top_pass = True
            for p in range(spec.d):
                owners = sorted(
                    (item for item in stream if p in item.props),
                    key=lambda it: (it.props[p], it.id),
                    reverse=True,
                )
                thr = result.policy.t
                for item in owners[: spec.k]:
                    if not any(v >= thr[q] for q, v in item.props.items()):
                        top_pass = False
            if not top_pass:
                continue
            assert result.optimal_vs_fullstream
            checked += 1

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        train = rand_instance(rng, 80, 1)
        stream = rand_instance(rng, 80, 1)
        spec = ConstraintSpec((4,))
        assert run_pipeline(train, stream, spec, 0.05) == run_pipeline(train, stream, spec, 0.05)

    def test_result_serializes(self):
        result = run_pipeline(TWO_ITEMS, TWO_ITEMS, SPEC_11, 0.2)
        obj = result.to_json_obj()
        text = json.dumps(obj, sort_keys=True)
        back = json.loads(text)
        assert back["retained_final"] == 2
        # the coverage rank outnumbers the two training items, so every threshold is 0
        assert back["policy"]["t"] == [0.0, 0.0]


class TestStatistical:
    def test_exact_opt_success_and_economy(self):
        # 300 matched-seed trials; the combined screen should stay optimal
        # almost always while keeping far fewer items than plain greedy
        dist = DistributionSpec("single-property-uniform", 1)
        spec = ConstraintSpec((5,))
        n, delta, trials = 2000, 0.05, 300
        successes = 0
        pipeline_retained = []
        greedy_retained = []
        for t in range(trials):
            train = sample_instance(dist, n, derive_seed(404, "train", t))
            stream = sample_instance(dist, n, derive_seed(404, "stream", t))
            result = run_pipeline(train, stream, spec, delta)
            successes += result.optimal_vs_fullstream
            pipeline_retained.append(result.retained_final)
            plain = greedy_screen(stream, spec, warmup_length(n, spec.k, delta))
            greedy_retained.append(len(plain.retained_ids))
        rate = successes / trials
        floor = 0.95 - 3 * math.sqrt(0.05 * 0.95 / trials)
        assert rate >= floor
        assert np.mean(pipeline_retained) < np.mean(greedy_retained)


COVERAGE_SHAPES = {
    "single": (DistributionSpec("single-property-uniform", 1), (3,)),
    "disjoint": (DistributionSpec("disjoint-properties-uniform", 2), (2, 1)),
    "overlap": (DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3)), (1, 1, 1)),
}


@pytest.mark.parametrize("shape", sorted(COVERAGE_SHAPES))
def test_trial_fails_exactly_when_an_optimal_item_is_screened_out(shape):
    # with continuous values the optimum is unique, and with warmup 0
    # coverage is the pipeline's only failure source
    dist, caps = COVERAGE_SHAPES[shape]
    spec = ConstraintSpec(caps)
    n, delta = 200, 0.5
    failures = 0
    for t in range(300):
        train = sample_instance(dist, n, derive_seed(505, f"{shape}-train", t))
        stream = sample_instance(dist, n, derive_seed(505, f"{shape}-stream", t))
        result = run_pipeline(train, stream, spec, delta)
        survivors, _ = screen_with_policy(result.policy, stream)
        full = optimal_matching(stream, spec)
        covered = set(full.real_ids()) <= set(survivors.ids.tolist())
        assert result.optimal_vs_fullstream == covered
        failures += not covered
    assert failures > 0
