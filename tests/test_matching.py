"""Solver tests.  brute_force_matching enumerates every feasible assignment
in exact rational arithmetic and is the oracle everything else is held to."""

import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from screenmatch import (
    ConstraintSpec,
    DistributionSpec,
    InputError,
    Instance,
    Item,
    Solution,
    exact_solution_value,
    is_dummy_id,
    optimal_matching,
    sample_instance,
)
from screenmatch.matching import _reaches_optimum, _solve_assignment

from helpers import (
    SPECIAL_VALUES, TIE_GRID, OversizeError, brute_force_matching, dummy_items, rand_items,
    rand_spec, reference_assignment,
)


def check_feasible(items, spec, sol):
    by_prop = sol.per_property()
    pool = {item.id: item for item in items}
    for item in dummy_items(spec):
        pool[item.id] = item
    assert sum(len(v) for v in by_prop.values()) == spec.k
    for p, ids in by_prop.items():
        assert len(ids) == spec.caps[p]
        for iid in ids:
            assert p in pool[iid].props
    ids = [iid for iid, _ in sol.assignment]
    assert len(ids) == len(set(ids)) == spec.k
    recomputed = sum(pool[iid].props[p] for iid, p in sol.assignment)
    assert abs(recomputed - sol.value) <= 1e-9
    for iid, p in sol.assignment:
        if is_dummy_id(iid):
            assert pool[iid].props[p] == 0.0


class TestSpecExamples:
    def test_single_property_picks_max(self):
        items = [Item(0, {0: 0.3}), Item(1, {0: 0.7})]
        sol = optimal_matching(items, ConstraintSpec((1,)))
        assert sol.assignment == ((1, 0),)
        assert sol.value == 0.7

    def test_two_property_overlap(self):
        items = [Item(0, {0: 0.9, 1: 0.8}), Item(1, {1: 0.5})]
        spec = ConstraintSpec((1, 1))
        sol = optimal_matching(items, spec)
        assert sol.assignment == ((0, 0), (1, 1))
        assert sol.value == pytest.approx(1.4)
        assert brute_force_matching(items, spec) == sol

    def test_empty_items_all_dummies(self):
        spec = ConstraintSpec((2, 1))
        sol = optimal_matching([], spec)
        assert sol.value == 0.0
        assert all(is_dummy_id(iid) for iid, _ in sol.assignment)
        assert len(sol.assignment) == 3

    def test_missing_property_filled_by_dummy(self):
        items = [Item(0, {1: 0.9})]
        spec = ConstraintSpec((1, 1))
        sol = brute_force_matching(items, spec)
        by_prop = sol.per_property()
        assert by_prop[0] and is_dummy_id(by_prop[0][0])
        assert by_prop[1] == (0,)

    def test_equal_values_pick_larger_id(self):
        items = [Item(0, {0: 0.5}), Item(1, {0: 0.5})]
        sol = brute_force_matching(items, ConstraintSpec((1,)))
        assert sol.assignment == ((1, 0),)
        assert optimal_matching(items, ConstraintSpec((1,))).assignment == ((1, 0),)


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            spec = rand_spec(rng)
            n = int(rng.integers(0, 9))
            items = rand_items(rng, n, spec.d)
            fast = optimal_matching(items, spec)
            slow = brute_force_matching(items, spec)
            assert fast == slow
            check_feasible(items, spec, fast)

    def test_tie_heavy_instances(self):
        # duplicated values force every tie layer to fire
        rng = np.random.default_rng(77)
        for _ in range(150):
            spec = rand_spec(rng)
            n = int(rng.integers(0, 9))
            items = rand_items(rng, n, spec.d, value_grid=TIE_GRID)
            assert optimal_matching(items, spec) == brute_force_matching(items, spec)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pooled_solver_matches_unpruned_assignment(self, d):
        # the pool lemma: solving over the per-property top-k gives the
        # same optimum as the assignment over every item
        rng = np.random.default_rng(5 + d)
        for _ in range(40):
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 4, size=d)))
            n = int(rng.integers(0, 201))
            grid = TIE_GRID if rng.random() < 0.5 else None
            max_props = 1 if rng.random() < 0.5 else d
            items = rand_items(rng, n, d, value_grid=grid, max_props=max_props)
            inst = Instance(items)
            unpruned = reference_assignment(inst.ids.tolist(), inst.columns(d).tolist(), spec)
            assert optimal_matching(items, spec) == unpruned

    def test_pool_cut_matches_the_oracle(self):
        # the pool's cut at each property's k-th value: ties at it, 0.0 and
        # -0.0 at it, a property no row owns, and columns of at most k rows
        rng = np.random.default_rng(1902)
        grid = (0.0, -0.0, 0.5, 0.5, 1.0)
        seen = {"tie": 0, "unowned": 0, "short": 0}
        for t in range(400):
            d = int(rng.integers(1, 4))
            spec = rand_spec(rng, d_max=d, k_max=5)
            while spec.d != d:
                spec = rand_spec(rng, d_max=d, k_max=5)
            n = int(rng.integers(0, 11))
            values = rng.choice(grid, size=(n, d))
            values[rng.random((n, d)) < 0.3] = np.nan
            owners = list(range(d))
            if d > 1 and t % 3 == 0:
                values[:, owners.pop(int(rng.integers(d)))] = np.nan
            for r in np.flatnonzero(np.isnan(values).all(axis=1)):
                values[r, owners[int(rng.integers(len(owners)))]] = rng.choice(grid)
            inst = Instance.from_values(values)
            assert optimal_matching(inst, spec) == brute_force_matching(inst.items, spec)
            for col in values.T:
                owned = np.sort(col[col == col])[::-1]
                seen["unowned"] += owned.size == 0
                seen["short"] += 0 < owned.size <= spec.k
                seen["tie"] += owned.size > spec.k and owned[spec.k] == owned[spec.k - 1]
        assert all(seen.values()), seen

    def test_path_insertion_matches_the_hungarian_reference(self):
        # assignments and value bits past the brute-force guard: uniform,
        # tie-heavy and extreme values, every other pool on sparse ids
        rng = np.random.default_rng(1955)
        grids = (None, TIE_GRID, SPECIAL_VALUES)
        for t in range(3000):
            d = int(rng.integers(1, 6))
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 7, size=d)))
            n = int(rng.integers(0, 61))
            rows = Instance(rand_items(rng, n, d, value_grid=grids[t % 3])).columns(d).tolist()
            ids = list(range(n)) if t % 2 else sorted(rng.choice(2**32, n, replace=False).tolist())
            fast = _solve_assignment(ids, rows, spec)
            slow = reference_assignment(ids, rows, spec)
            assert fast.assignment == slow.assignment
            assert fast.value.hex() == slow.value.hex()

    def test_tied_values_keep_the_pool_within_k_per_property(self, monkeypatch):
        # ties at the k-th value are broken by id, so a stream of equal
        # values pools at most k rows per property
        import screenmatch.matching as matching

        sizes = []
        real = matching._solve_assignment

        def counting(ids, rows, spec):
            sizes.append(len(ids))
            return real(ids, rows, spec)

        monkeypatch.setattr(matching, "_solve_assignment", counting)
        values = np.full((200, 3), 0.5)
        values[::2, 1] = np.nan
        inst = Instance.from_values(values)
        spec = ConstraintSpec((2, 2, 2))
        sol = optimal_matching(inst, spec)
        assert len(sizes) == 1 and sizes[0] <= spec.d * spec.k
        assert sol == real(inst.ids.tolist(), values.tolist(), spec)

    def test_insertion_by_falling_weight_leaves_most_of_the_pool_out(self, monkeypatch):
        # overlap d=3 pools of 17.9 items on average: in id order 12.2 of them
        # entered the optimum per solve, by falling weight 7.7 do
        import screenmatch.matching as matching

        entered = []
        real = matching._path_step

        def counting(held, arrival, caps):
            kept = real(held, arrival, caps)
            entered.append(kept)
            return kept

        monkeypatch.setattr(matching, "_path_step", counting)
        dist = DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3))
        spec = ConstraintSpec((2, 2, 2))
        for seed in range(9000, 9300):
            matching._solve(sample_instance(dist, 1000, seed), spec)
        assert len(entered) == 5376
        assert sum(entered) == 2321

    def test_solver_golden_digests(self):
        # assignments and value bits on overlap pools past the brute-force
        # guard (n up to 60, k up to 9), every other one tie-heavy; the
        # digest was taken with the earlier min-cost-flow solver
        rng = np.random.default_rng(2031)
        h = hashlib.sha256()
        for i in range(120):
            d = int(rng.integers(2, 5))
            caps = tuple(int(c) for c in rng.integers(1, 4, size=d))
            while sum(caps) > 9:
                caps = tuple(int(c) for c in rng.integers(1, 4, size=d))
            n = int(rng.integers(0, 61))
            items = rand_items(rng, n, d, value_grid=TIE_GRID if i % 2 else None)
            sol = optimal_matching(items, ConstraintSpec(caps))
            h.update(f"{sol.assignment}|{sol.value.hex()}\n".encode())
        assert h.hexdigest() == "4bcbbbefa9da1951cf2b91bbfadcaa66017bc7d7abf2b94b25d17ea71949be1d"


class TestReachesOptimum:
    def test_distinct_solutions_that_tie_reach_the_optimum(self):
        items = [Item(0, {0: 0.5}), Item(1, {0: 0.5})]
        spec = ConstraintSpec((1,))
        full = optimal_matching(items, spec)
        final = optimal_matching(items[:1], spec)
        assert final.assignment == ((0, 0),) and full.assignment == ((1, 0),)
        assert _reaches_optimum(items, final, full)

    def test_a_lower_value_misses_the_optimum(self):
        items = [Item(0, {0: 0.4}), Item(1, {0: 0.5})]
        spec = ConstraintSpec((1,))
        full = optimal_matching(items, spec)
        assert not _reaches_optimum(items, optimal_matching(items[:1], spec), full)
        assert _reaches_optimum(items, full, full)


class TestSolverProperties:
    def test_monotone_in_items(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            spec = rand_spec(rng)
            items = rand_items(rng, int(rng.integers(1, 9)), spec.d)
            before = optimal_matching(items[:-1], spec).value
            after = optimal_matching(items, spec).value
            assert after >= before - 1e-12

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            spec = rand_spec(rng)
            items = rand_items(rng, int(rng.integers(1, 9)), spec.d, value_grid=TIE_GRID)
            base = optimal_matching(items, spec)
            perm = list(items)
            rng.shuffle(perm)
            assert optimal_matching(perm, spec) == base

    def test_saturation_large_instance(self):
        rng = np.random.default_rng(44)
        spec = ConstraintSpec((3, 2, 4))
        items = rand_items(rng, 200, 3)
        sol = optimal_matching(items, spec)
        check_feasible(items, spec, sol)

    def test_assignment_sorted_by_id(self):
        rng = np.random.default_rng(8)
        spec = ConstraintSpec((2, 2))
        items = rand_items(rng, 30, 2)
        sol = optimal_matching(items, spec)
        ids = [iid for iid, _ in sol.assignment]
        assert ids == sorted(ids)


class TestGuards:
    def test_brute_force_size_guard(self):
        items = [Item(i, {0: 0.5}) for i in range(11)]
        with pytest.raises(OversizeError):
            brute_force_matching(items, ConstraintSpec((1,)))
        with pytest.raises(OversizeError):
            brute_force_matching(items[:5], ConstraintSpec((6,)))

    def test_unknown_property_rejected(self):
        with pytest.raises(InputError):
            optimal_matching([Item(0, {3: 0.5})], ConstraintSpec((1, 1)))

    def test_dummy_range_id_rejected(self):
        bad = dummy_items(ConstraintSpec((1,)))[0]
        with pytest.raises(InputError):
            optimal_matching([bad], ConstraintSpec((1,)))

    @pytest.mark.parametrize("solver", [optimal_matching, brute_force_matching])
    @pytest.mark.parametrize(
        "items,kind",
        [
            ([Item(0, {0: 0.5}), Item(0, {0: 0.9})], "duplicate-id"),
            ([Item(0, {0: 0.5}), Item(1, {})], "empty-props"),
        ],
    )
    def test_item_rules_hold_for_library_callers(self, solver, items, kind):
        with pytest.raises(InputError, match=f"invalid items: 1 violation\\(s\\), first is {kind}"):
            solver(items, ConstraintSpec((2,)))


class TestSolutionObject:
    def test_json_round_trip(self):
        items = [Item(0, {0: 0.9, 1: 0.8}), Item(1, {1: 0.5})]
        sol = optimal_matching(items, ConstraintSpec((1, 1)))
        encoded = json.dumps(sol.to_json_obj(), sort_keys=True)
        assert Solution.from_json_obj(json.loads(encoded)) == sol

    def test_real_ids_skip_dummies(self):
        spec = ConstraintSpec((2,))
        sol = optimal_matching([Item(0, {0: 0.4})], spec)
        assert sol.real_ids() == (0,)

    def test_exact_value_agrees_with_float(self):
        rng = np.random.default_rng(3)
        spec = ConstraintSpec((2, 1))
        items = rand_items(rng, 8, 2)
        sol = optimal_matching(items, spec)
        exact = exact_solution_value(items, sol)
        assert isinstance(exact, Fraction)
        assert math.isclose(float(exact), sol.value, rel_tol=0, abs_tol=1e-9)
