import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from screenmatch import (
    ABOVE,
    ConfigError,
    ConstraintSpec,
    DistributionSpec,
    InputError,
    Instance,
    Item,
    NetSizeError,
    ThresholdsPolicy,
    coverage_rank,
    is_above,
    learn_optimal_thresholds,
    learn_topm_thresholds,
    optimal_matching,
    quantile_policy_net,
    read_policy,
    sample_instance,
    screen_with_policy,
    write_policy,
)

from helpers import brute_force_matching, rand_instance

TWO_ITEMS = Instance((Item(0, {0: 0.9, 1: 0.8}), Item(1, {1: 0.5})))
SPEC_11 = ConstraintSpec((1, 1))


class TestPolicyObject:
    def test_length_checked(self):
        with pytest.raises(ConfigError):
            ThresholdsPolicy(())

    def test_range_checked(self):
        with pytest.raises(ConfigError):
            ThresholdsPolicy((1.5,))
        ThresholdsPolicy((ABOVE, 0.0, 1.0))

    def test_round_trip_with_sentinel(self):
        policy = ThresholdsPolicy((0.25, ABOVE))
        buf = io.StringIO()
        write_policy(policy, buf)
        back = read_policy(io.StringIO(buf.getvalue()))
        assert back == policy
        assert is_above(back.t[1])

    @pytest.mark.parametrize("t", ['{"ABOVE": 0.3}', '"0.5"', "0.5", "null"])
    def test_thresholds_must_be_an_array(self, t):
        # an object's keys would otherwise read as thresholds: {"ABOVE": 0.3} as (ABOVE,)
        want = r"^p\.json: malformed policy \(thresholds must be a JSON array"
        with pytest.raises(InputError, match=want):
            read_policy(io.StringIO(f'{{"t": {t}}}'), "p.json")


class TestApplyPolicy:
    """A policy applied to one item: a screen of a one-row instance."""

    @staticmethod
    def keeps(policy, item):
        retained, _ = screen_with_policy(policy, Instance((item,)))
        return retained.n == 1

    def test_equality_retains(self):
        assert self.keeps(ThresholdsPolicy((0.5,)), Item(0, {0: 0.5}))

    def test_above_sentinel_rejects_everything(self):
        assert not self.keeps(ThresholdsPolicy((0.5, ABOVE)), Item(0, {1: 0.99}))

    def test_zero_thresholds_retain_all(self):
        policy = ThresholdsPolicy((0.0, 0.0))
        assert self.keeps(policy, Item(0, {1: 0.0}))

    def test_any_property_suffices(self):
        policy = ThresholdsPolicy((0.9, 0.1))
        assert self.keeps(policy, Item(0, {0: 0.2, 1: 0.15}))


class TestScreenWithPolicy:
    def test_all_zero_keeps_instance(self):
        inst = rand_instance(np.random.default_rng(1), 20, 2)
        retained, stats = screen_with_policy(ThresholdsPolicy((0.0, 0.0)), inst)
        assert retained == inst
        assert stats.total == 20

    def test_all_above_keeps_nothing(self):
        inst = rand_instance(np.random.default_rng(2), 20, 2)
        retained, stats = screen_with_policy(ThresholdsPolicy((ABOVE, ABOVE)), inst, SPEC_11)
        assert retained.n == 0
        assert stats.total == 0
        assert stats.value == 0.0

    def test_retained_item_matched_to_any_property(self):
        # id0 passes only via property 1 but is then matched to property 0
        retained, stats = screen_with_policy(ThresholdsPolicy((0.95, 0.6)), TWO_ITEMS, SPEC_11)
        assert [i.id for i in retained] == [0]
        assert stats.value == pytest.approx(0.9)

    def test_counts_match_set_definitions(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            inst = rand_instance(rng, 25, d)
            t = tuple(ABOVE if rng.random() < 0.2 else float(rng.random()) for _ in range(d))
            policy = ThresholdsPolicy(t)
            retained, stats = screen_with_policy(policy, inst)
            per = [
                {
                    item.id
                    for item in inst
                    if p in item.props and not is_above(t[p]) and item.props[p] >= t[p]
                }
                for p in range(d)
            ]
            assert list(stats.per_property) == [len(s) for s in per]
            assert {i.id for i in retained} == set().union(*per)
            assert stats.total == len(set().union(*per))
            assert stats.total <= sum(stats.per_property)

    @pytest.mark.parametrize(
        "items, kind",
        [
            ([Item(0, {0: 7.0})], "value-out-of-range"),
            ([Item(0, {0: 0.9}), Item(0, {0: 0.5})], "duplicate-id"),
        ],
        ids=["value-out-of-range", "duplicate-id"],
    )
    def test_survivors_are_checked_before_they_are_solved(self, items, kind):
        # the screen itself trusts its stream; solving the survivors checks them
        inst, policy = Instance(items), ThresholdsPolicy((0.0,))
        assert screen_with_policy(policy, inst)[1].total == len(items)
        with pytest.raises(InputError, match=f"^invalid items: 1 violation\\(s\\), first is {kind} "):
            screen_with_policy(policy, inst, ConstraintSpec((1,)))

    def test_value_none_without_spec(self):
        _, stats = screen_with_policy(ThresholdsPolicy((0.0,)), Instance((Item(0, {0: 0.5}),)))
        assert stats.value is None


class TestLearnOptimal:
    def test_two_item_example(self):
        assert learn_optimal_thresholds(TWO_ITEMS, SPEC_11).t == (0.9, 0.5)

    def test_top_k_single_property(self):
        train = Instance(tuple(Item(i, {0: v}) for i, v in enumerate([0.3, 0.7, 0.9])))
        spec = ConstraintSpec((2,))
        policy = learn_optimal_thresholds(train, spec)
        assert policy.t == (0.7,)
        retained, stats = screen_with_policy(policy, train, spec)
        assert len(retained) == 2
        assert stats.value == pytest.approx(0.7 + 0.9)

    def test_empty_train_gives_zeros(self):
        assert learn_optimal_thresholds(Instance(()), SPEC_11).t == (0.0, 0.0)

    def test_dummy_filled_property_gets_zero(self):
        train = Instance((Item(0, {1: 0.4}),))
        assert learn_optimal_thresholds(train, SPEC_11).t == (0.0, 0.4)

    def test_exact_k_retention_on_train(self):
        # unique values, optimum without dummies: re-screening the training
        # instance keeps exactly k items at the optimal value
        rng = np.random.default_rng(11)
        done = 0
        while done < 50:
            d = int(rng.integers(1, 4))
            caps = tuple(int(c) for c in rng.integers(1, 3, size=d))
            spec = ConstraintSpec(caps)
            train = rand_instance(rng, 8 * spec.k, d)
            values = [v for item in train for v in item.props.values()]
            if len(set(values)) != len(values):
                continue
            full = optimal_matching(train.items, spec)
            if len(full.real_ids()) != spec.k:
                continue
            policy = learn_optimal_thresholds(train, spec)
            retained, stats = screen_with_policy(policy, train, spec)
            assert len(retained) == spec.k
            assert stats.value == pytest.approx(full.value, abs=1e-12)
            done += 1


class TestLearnTopM:
    def test_order_statistic(self):
        train = Instance(tuple(Item(i, {0: v}) for i, v in enumerate([0.3, 0.7, 0.9])))
        assert learn_topm_thresholds(train, ConstraintSpec((1,)), [2]).t == (0.7,)

    def test_short_supply_falls_to_zero(self):
        train = Instance(tuple(Item(i, {0: v}) for i, v in enumerate([0.3, 0.7, 0.9])))
        assert learn_topm_thresholds(train, ConstraintSpec((1,)), [10]).t == (0.0,)

    def test_properties_independent(self):
        train = Instance(
            (
                Item(0, {0: 0.2}),
                Item(1, {0: 0.6}),
                Item(2, {1: 0.5}),
                Item(3, {1: 0.1}),
            )
        )
        assert learn_topm_thresholds(train, SPEC_11, [1, 2]).t == (0.6, 0.1)

    def test_retains_at_least_m(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            train = rand_instance(rng, 30, d)
            m = [int(rng.integers(1, 8)) for _ in range(d)]
            policy = learn_topm_thresholds(train, ConstraintSpec((1,) * d), m)
            _, stats = screen_with_policy(policy, train)
            for p in range(d):
                have = sum(1 for item in train if p in item.props)
                assert stats.per_property[p] >= min(m[p], have)

    def test_threshold_is_the_mth_largest_on_ties_and_zeros(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            values = rng.choice((0.0, -0.0, 0.25, 0.5, 0.5, 1.0), size=(30, d))
            values[rng.random((30, d)) < 0.3] = np.nan
            values[np.isnan(values).all(axis=1), 0] = 0.0
            m = [int(x) for x in rng.integers(1, 35, size=d)]
            policy = learn_topm_thresholds(
                Instance.from_values(values), ConstraintSpec((1,) * d), m
            )
            for p in range(d):
                owned = sorted(values[values[:, p] == values[:, p], p], reverse=True)
                assert policy.t[p] == (owned[m[p] - 1] if m[p] <= len(owned) else 0.0)

    def test_m_validated(self):
        with pytest.raises(ConfigError):
            learn_topm_thresholds(TWO_ITEMS, SPEC_11, [1])
        with pytest.raises(ConfigError):
            learn_topm_thresholds(TWO_ITEMS, SPEC_11, [1, 0])
        # a bool is no rank, though Python counts True as 1
        with pytest.raises(ConfigError, match=r"^m entries must be positive integers, got \(True, 1\)$"):
            learn_topm_thresholds(TWO_ITEMS, SPEC_11, [True, 1])


def _direct_rank(n_train, n_stream, k, d, budget):
    """The least m >= k whose coverage tail, enumerated term by term over
    the hypergeometric law, fits the budget; max(k, n_train + 1) if none
    up to n_train does."""
    total = n_train + n_stream
    for m in range(k, n_train + 1):
        draws = k + m - 1
        if draws > total:
            break
        # P(fewer than k of the top ``draws`` scores are the stream's)
        tail = sum(
            Fraction(
                math.comb(n_stream, x) * math.comb(n_train, draws - x), math.comb(total, draws)
            )
            for x in range(k)
            if 0 <= draws - x <= n_train
        )
        if d * tail <= Fraction(budget):
            return m
    return max(k, n_train + 1)


BUDGETS = (0.5, 0.1, 0.01, 1e-4)


class TestCoverageRank:
    def test_equals_the_direct_enumeration(self):
        f = coverage_rank.__wrapped__
        for n_train in range(13):
            for n_stream in range(13):
                for k in range(1, 5):
                    for d in (1, 2):
                        for budget in BUDGETS:
                            args = (n_train, n_stream, k, d, budget)
                            assert f(*args) == _direct_rank(*args), args

    def test_monotone_in_the_budget(self):
        grid = [10.0**-e for e in range(1, 320, 7)] + [0.9, 0.5, 0.25]
        for n, k, d in [(10, 2, 1), (1000, 3, 2), (10**4, 10, 1), (10**5, 5, 3)]:
            ranks = [coverage_rank(n, n, k, d, b) for b in sorted(grid)]
            assert ranks == sorted(ranks, reverse=True)

    @pytest.mark.parametrize("n_train, n_stream, k", [(0, 50, 3), (0, 0, 1), (40, 2, 3), (7, 0, 2)])
    def test_no_training_or_a_short_stream_keeps_every_owner(self, n_train, n_stream, k):
        # the rank exceeds the training owners, so the threshold is 0
        for budget in BUDGETS:
            assert coverage_rank(n_train, n_stream, k, 2, budget) == max(k, n_train + 1)

    def test_reference_points(self):
        # the exact m barely moves with n: Hyp(2n, n, L) tends to Bin(L, 1/2)
        assert coverage_rank(10**4, 10**4, 10, 1, 1e-3) == 29
        assert coverage_rank(10**5, 10**5, 10, 1, 1e-3) == 29
        assert coverage_rank(10**3, 10**3, 5, 1, 0.1) == 10
        assert coverage_rank(10**6, 10**6, 10, 1, 1e-6) == 44

    def test_a_subnormal_budget_is_quick(self):
        start = time.perf_counter()
        m = coverage_rank.__wrapped__(10**6, 10**6, 10, 3, 1e-310)
        assert time.perf_counter() - start < 0.1
        assert 10 < m < 10**6

    @pytest.mark.parametrize(
        "args",
        [(-1, 5, 1, 1, 0.1), (5, -1, 1, 1, 0.1), (5, 5, 0, 1, 0.1), (5, 5, 1, 0, 0.1),
         (5, 5, 1, 1, 0.0), (5, 5, 1, 1, 1.0), (5, 5, 1, 1, math.nan), (5.0, 5, 1, 1, 0.1)],
    )
    def test_argument_guards(self, args):
        with pytest.raises(ConfigError):
            coverage_rank(*args)


class TestQuantileNet:
    def test_uniform_thresholds_near_tail_mass(self):
        n = 2000
        rng = np.random.default_rng(42)
        train = Instance(tuple(Item(i, {0: float(v)}) for i, v in enumerate(rng.random(n))))
        spec = ConstraintSpec((2,))
        net = quantile_policy_net(train, spec, n)
        finite = sorted(t for (t,) in (p.t for p in net) if not is_above(t) and t > 0.0)
        # j-th grid point sits near the (1 - j/n) quantile of U[0,1]
        for j, t in enumerate(reversed(finite), start=1):
            assert abs(t - (1 - j / n)) < 0.01

    def test_net_size_small_k(self):
        rng = np.random.default_rng(1)
        train = Instance(tuple(Item(i, {0: float(v)}) for i, v in enumerate(rng.random(500))))
        net = quantile_policy_net(train, ConstraintSpec((1,)), 500)
        assert len(net) <= 12

    def test_stream_length_below_one_is_refused(self):
        with pytest.raises(ConfigError, match=r"^n must be a positive integer, got 0$"):
            quantile_policy_net(TWO_ITEMS, SPEC_11, 0)

    @pytest.mark.parametrize("cap", [0, -5, 2.0])
    def test_a_cap_below_one_is_refused(self, cap):
        # no net holds fewer than one policy, so no such cap can be met
        with pytest.raises(ConfigError) as exc:
            quantile_policy_net(TWO_ITEMS, SPEC_11, 10, max_net_size=cap)
        assert str(exc.value) == f"max_net_size must be a positive integer, got {cap!r}"

    def test_empty_train_degenerates(self):
        net = quantile_policy_net(Instance(()), SPEC_11, 100)
        assert net == (ThresholdsPolicy((0.0, 0.0)),)

    def test_zero_threshold_always_present(self):
        rng = np.random.default_rng(2)
        train = rand_instance(rng, 200, 2)
        net = quantile_policy_net(train, SPEC_11, 200)
        assert any(p.t == (0.0, 0.0) for p in net)

    def test_size_cap_refusal_names_requirement(self):
        rng = np.random.default_rng(3)
        train = rand_instance(rng, 400, 2)
        with pytest.raises(NetSizeError, match=r"\d+"):
            quantile_policy_net(train, ConstraintSpec((5, 5)), 400, max_net_size=4)


class TestOrderProperties:
    def test_antitone_in_thresholds(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            inst = rand_instance(rng, 20, d)
            hi = [float(rng.random()) for _ in range(d)]
            lo = list(hi)
            lo[int(rng.integers(0, d))] *= float(rng.random())
            r_hi, _ = screen_with_policy(ThresholdsPolicy(tuple(hi)), inst)
            r_lo, _ = screen_with_policy(ThresholdsPolicy(tuple(lo)), inst)
            assert {i.id for i in r_hi} <= {i.id for i in r_lo}

    def test_value_monotone_under_coordinatewise_lowering(self):
        rng = np.random.default_rng(10)
        spec = ConstraintSpec((2, 1))
        for _ in range(20):
            inst = rand_instance(rng, 15, 2)
            hi = tuple(float(rng.random()) for _ in range(2))
            lo = tuple(t * float(rng.random()) for t in hi)
            _, s_hi = screen_with_policy(ThresholdsPolicy(hi), inst, spec)
            _, s_lo = screen_with_policy(ThresholdsPolicy(lo), inst, spec)
            assert s_lo.value >= s_hi.value - 1e-12

    def test_vc_probe_small(self):
        # no threshold keeps the lower-valued of two same-property items
        # while dropping the higher; grid version of the acceptance probe
        rng = np.random.default_rng(12)
        grid = np.linspace(0.0, 1.0, 21)
        for _ in range(200):
            va, vb = sorted(rng.random(2))
            for t in grid:
                keeps_hi = vb >= t
                keeps_lo = va >= t
                assert not (keeps_lo and not keeps_hi)
