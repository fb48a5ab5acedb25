import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from screenmatch import (
    ConfigError,
    ConstraintSpec,
    InputError,
    Instance,
    Item,
    PipelineConfig,
    derive_seed,
    exact_solution_value,
    greedy_screen,
    optimal_matching,
    run_pipeline,
    sample_instance,
    warmup_length,
    DistributionSpec,
)
import screenmatch.greedy as greedy
import screenmatch.matching as matching
import screenmatch.pipeline as pipeline
from screenmatch.greedy import Arrivals, screen_entries
from screenmatch.matching import Held, _path_step, _weights

from helpers import (
    SPECIAL_VALUES, TIE_GRID, rand_instance, rand_items, reference_assignment, reference_screen,
)


def stream_of(values):
    return Instance(tuple(Item(i, {0: v}) for i, v in enumerate(values)))


class TestWarmupLength:
    @pytest.mark.parametrize(
        "n,k,delta,expected",
        [
            (1000, 10, 0.1, 10),
            (100, 10, 0.0, 0),
            (10, 3, 0.5, 1),
            (0, 1, 0.7, 0),
            (7, 7, 1.0, 1),
        ],
    )
    def test_values(self, n, k, delta, expected):
        assert warmup_length(n, k, delta) == expected

    def test_exact_rational_floor(self):
        # float(0.3) is slightly below 3/10, so the floor of delta*n/k at
        # n=10, k=1 is 2, not 3; naive float arithmetic gets this wrong
        assert warmup_length(10, 1, 0.3) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            ((-1, 1, 0.5), "n must be a nonnegative integer, got -1"),
            ((10, 0, 0.5), "k must be a positive integer, got 0"),
            ((10, 1, 1.5), "delta must lie in [0, 1], got 1.5"),
            ((10, 1, -0.1), "delta must lie in [0, 1], got -0.1"),
            ((10, 1, float("nan")), "delta must lie in [0, 1], got nan"),
            ((10.0, 1, 0.5), "n must be a nonnegative integer, got 10.0"),
            ((10, 1.0, 0.5), "k must be a positive integer, got 1.0"),
        ],
    )
    def test_rejects(self, bad):
        args, err = bad
        with pytest.raises(ConfigError) as exc:
            warmup_length(*args)
        assert str(exc.value) == err


class TestHandSimulations:
    def test_running_maxima_are_kept(self):
        res = greedy_screen(stream_of([0.2, 0.5, 0.4, 0.9]), ConstraintSpec((1,)), warmup=0)
        assert res.retained_ids == (0, 1, 3)
        assert res.final_solution.value == 0.9

    def test_warmup_skips_prefix(self):
        res = greedy_screen(stream_of([0.2, 0.5, 0.4, 0.9]), ConstraintSpec((1,)), warmup=1)
        assert res.retained_ids == (1, 3)

    def test_capacity_exceeding_supply_keeps_everything(self):
        res = greedy_screen(stream_of([0.5, 0.1, 0.3]), ConstraintSpec((5,)), warmup=0)
        assert res.retained_ids == (0, 1, 2)

    def test_k2_hand_case(self):
        res = greedy_screen(stream_of([0.2, 0.5, 0.4, 0.9]), ConstraintSpec((2,)), warmup=0)
        # 0.4 displaces 0.2 in the running top-2, so all four enter
        assert res.retained_ids == (0, 1, 2, 3)
        assert res.final_solution.value == pytest.approx(1.4)


class TestTrace:
    def test_trace_covers_every_arrival(self):
        res = greedy_screen(stream_of([0.2, 0.5, 0.4]), ConstraintSpec((1,)), 1, trace=True)
        assert [s.step for s in res.trace] == [0, 1, 2]
        assert [s.retained for s in res.trace] == [False, True, False]
        assert res.trace[2].running_value == 0.5

    @pytest.mark.parametrize(
        "d, max_props",
        [(2, None), (3, None), (1, 1), (2, 1), (3, 1)],
        # one property per item: decided by the gate alone, with no solve
        ids=["2", "3", "1-single", "2-single", "3-single"],
    )
    def test_running_value_is_optimum_over_kept(self, d, max_props):
        rng = np.random.default_rng(40 + d)
        for _ in range(30):
            n = int(rng.integers(1, 25))
            grid = TIE_GRID if rng.random() < 0.5 else None
            inst = Instance(tuple(rand_items(rng, n, d, value_grid=grid, max_props=max_props)))
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 3, size=d)))
            res = greedy_screen(inst, spec, int(rng.integers(0, n + 1)), trace=True)
            kept = []
            for step in res.trace:
                if step.retained:
                    kept.append(inst.items[step.item_id])
                assert step.running_value == optimal_matching(kept, spec).value

    @pytest.mark.parametrize("shape", ["d1", "disjoint-d2", "overlap-d3"])
    def test_tracing_leaves_the_decisions_as_they_are(self, shape):
        # the trace replays the kept arrivals after the pass
        dist, caps, n, delta = CONTENDER_SHAPES[shape]
        spec = ConstraintSpec(caps)
        for t in range(3):
            inst = sample_instance(dist, n, 9600 + t)
            warmup = warmup_length(n, spec.k, delta) if t else 0
            plain = greedy_screen(inst, spec, warmup)
            traced = greedy_screen(inst, spec, warmup, trace=True)
            assert traced.retained_ids == plain.retained_ids
            assert traced.final_solution == plain.final_solution
            assert [s.item_id for s in traced.trace if s.retained] == list(plain.retained_ids)
            assert traced.trace[-1].running_value == plain.final_solution.value

    def test_trace_off_by_default(self):
        res = greedy_screen(stream_of([0.2]), ConstraintSpec((1,)), 0)
        assert res.trace is None


class TestErrors:
    def test_invalid_stream(self):
        bad = Instance((Item(0, {0: 1.5}),))
        with pytest.raises(InputError):
            greedy_screen(bad, ConstraintSpec((1,)), 0)

    def test_warmup_beyond_stream(self):
        with pytest.raises(InputError):
            greedy_screen(stream_of([0.5]), ConstraintSpec((1,)), 2)


class TestInvariants:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gated_pass_matches_ungated_reference(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(40):
            n = int(rng.integers(0, 30))
            max_props = 1 if rng.random() < 0.5 else d
            items = rand_items(rng, n, d, value_grid=TIE_GRID, max_props=max_props)
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 4, size=d)))
            warmup = int(rng.integers(0, n + 1))
            entries = [(item.id, item) for item in items]
            inst = Instance(items)
            fast, _ = screen_entries(Arrivals(inst.ids, inst.columns(d)), spec, warmup)
            slow = reference_screen(entries, spec, warmup)
            assert inst.ids[fast].tolist() == [i.id for i in slow]

    @pytest.mark.parametrize("d", [2, 3])
    def test_overlap_decisions_match_the_reference(self, d):
        # path steps over the optimum plus the arrival
        rng = np.random.default_rng(70 + d)
        for t in range(30):
            n = int(rng.integers(0, 40))
            items = rand_items(rng, n, d, value_grid=TIE_GRID if t % 2 else None)
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 4, size=d)))
            warmup = int(rng.integers(0, n // 4 + 1))
            res = greedy_screen(Instance(items), spec, warmup, trace=True)
            slow = [i.id for i in reference_screen([(i.id, i) for i in items], spec, warmup)]
            assert list(res.retained_ids) == slow
            kept = []
            for step, item in zip(res.trace, items):
                if step.retained:
                    kept.append(item)
                assert step.running_value == optimal_matching(kept, spec).value

    def test_overlap_solves_see_at_most_k_plus_one_items(self, monkeypatch):
        # mc_multi's overlap shape; gate_passes counts the contenders of a top-k
        # heap gate, each step sees the optimum's real items and the arrival, and
        # the floors let through to a path step only arrivals that it keeps
        solves = []
        real = greedy._path_step

        def counting(held, arrival, caps):
            solves.append(sum(map(len, held)) + 1)
            return real(held, arrival, caps)

        full_solves = []
        real_full = matching._solve_assignment

        def counting_full(ids, rows, spec):
            full_solves.append(len(ids))
            return real_full(ids, rows, spec)

        monkeypatch.setattr(greedy, "_path_step", counting)
        monkeypatch.setattr(matching, "_solve_assignment", counting_full)
        dist = DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3))
        spec = ConstraintSpec((2, 2, 2))
        inst = sample_instance(dist, 1000, 31)
        k = spec.k
        warmup = warmup_length(1000, k, 0.1)
        values = inst.columns(3)
        kept, _ = screen_entries(Arrivals(inst.ids, values), spec, warmup)
        kept_ids = set(inst.ids[kept].tolist())
        heaps = [[] for _ in range(3)]
        gate_passes = 0
        for i, row in enumerate(values.tolist()):
            owned = [(p, v) for p, v in enumerate(row) if v == v]
            if i >= warmup and any(len(heaps[p]) < k or (v, i) > heaps[p][0] for p, v in owned):
                gate_passes += 1
            if i in kept_ids:
                for p, v in owned:
                    heapq.heappush(heaps[p], (v, i))
                    if len(heaps[p]) > k:
                        heapq.heappop(heaps[p])
        assert max(solves) <= k + 1
        assert len(solves) == sum(i >= warmup for i in kept)
        assert len(solves) <= gate_passes
        assert full_solves == []

    def test_prefix_consistency(self):
        # the optimum over all first i items must equal the one the greedy
        # reaches while only ever seeing kept items
        rng = np.random.default_rng(99)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            caps = tuple(int(c) for c in rng.integers(1, 3, size=d))
            spec = ConstraintSpec(caps)
            n = int(rng.integers(1, 10))
            inst = rand_instance(rng, n, d, value_grid=TIE_GRID if rng.random() < 0.5 else None)
            res = greedy_screen(inst, spec, warmup=0)
            retained = set(res.retained_ids)
            for i in range(1, n + 1):
                prefix_opt = optimal_matching(inst.items[:i], spec)
                for iid in prefix_opt.real_ids():
                    assert iid in retained
            assert res.final_solution == optimal_matching(inst.items, spec)

    def test_optimum_capture_past_warmup(self):
        # when no full-stream optimum item arrives during warmup, the
        # optimum survives screening
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 30:
            d = int(rng.integers(1, 3))
            caps = tuple(int(c) for c in rng.integers(1, 3, size=d))
            spec = ConstraintSpec(caps)
            inst = rand_instance(rng, 12, d)
            warmup = int(rng.integers(0, 5))
            full = optimal_matching(inst.items, spec)
            if any(iid < warmup for iid in full.real_ids()):
                continue
            res = greedy_screen(inst, spec, warmup)
            assert set(full.real_ids()) <= set(res.retained_ids)
            assert res.final_solution.value == full.value
            checked += 1

    def test_zero_value_item_is_retained(self):
        # an arriving real item of value 0 still enters the unsaturated
        # optimum ahead of a dummy
        res = greedy_screen(stream_of([0.0]), ConstraintSpec((1,)), 0)
        assert res.retained_ids == (0,)

    def test_deterministic_over_sampled_streams(self):
        dist = DistributionSpec("disjoint-properties-uniform", 2)
        spec = ConstraintSpec((2, 1))
        inst = sample_instance(dist, 300, 17)
        a = greedy_screen(inst, spec, 10)
        b = greedy_screen(inst, spec, 10)
        assert a == b


class TestFinalOptimum:
    """``greedy_screen`` and ``run_pipeline`` solve only the optimum's items
    that the pass hands back, and must equal a solve of every kept item."""

    def test_the_solver_assigns_two_equal_items_as_it_always_does(self):
        # the pass ends holding item 1 at property 0 and item 0 at property 1;
        # tie layer 4 sends the smaller id to the smaller property
        stream = Instance([Item(0, {0: 0.5, 1: 0.5}), Item(1, {0: 0.5, 1: 0.5})])
        spec = ConstraintSpec((1, 1))
        kept, best = screen_entries(Arrivals(stream.ids, stream.columns(2)), spec, 0)
        assert kept == [0, 1]
        assert best == optimal_matching(stream, spec)
        assert best.assignment == ((0, 0), (1, 1))
        res = greedy_screen(stream, spec, 0)
        assert res.final_solution == optimal_matching(stream, spec)
        assert res.final_solution.assignment == ((0, 0), (1, 1))

    @pytest.mark.parametrize(
        "d, max_props", [(1, 1), (2, 1), (2, 2), (3, 3)],
        ids=["d1", "disjoint-d2", "overlap-d2", "overlap-d3"],
    )
    def test_tie_grid_streams(self, monkeypatch, d, max_props):
        screened = []
        real = pipeline.screen_entries

        def keeping(entries, spec, warmup):
            out = real(entries, spec, warmup)
            kept = Instance.from_values(entries.values[out[0]], entries.pos[out[0]])
            assert out[1] == optimal_matching(kept, spec)
            screened.append((entries.pos, kept))
            return out

        monkeypatch.setattr(pipeline, "screen_entries", keeping)
        rng = np.random.default_rng(40 + 10 * d + max_props)
        moved = 0
        for t in range(24):
            n = int(rng.integers(4, 40))
            stream, train = (
                Instance(rand_items(rng, n, d, value_grid=TIE_GRID, max_props=max_props))
                for _ in range(2)
            )
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 4, size=d)))
            warmup = int(rng.integers(0, n // 4 + 1)) if t % 3 else 0
            res = greedy_screen(stream, spec, warmup)
            kept = stream.take(list(res.retained_ids))
            assert res.final_solution == optimal_matching(kept, spec)
            result = run_pipeline(train, stream, spec, PipelineConfig(0.5))
            positions, kept = screened.pop()
            assert result.final_solution == optimal_matching(kept, spec)
            # survivors past a dropped arrival have ids above their indices
            moved += kept.n > 0 and not np.array_equal(positions, np.arange(len(positions)))
        assert moved > 0


def screen_matches_reference(positions: np.ndarray, values: np.ndarray, spec, warmup: int):
    """Hold ``screen_entries`` on arrivals at ``positions`` (their ids) to
    the ungated reference: the kept arrivals and the returned optimum; on a
    full stream (positions 0..n-1), ``greedy_screen``'s every trace step too."""
    items = [
        Item(pos, {p: v for p, v in enumerate(row) if v == v})
        for pos, row in zip(positions.tolist(), values.tolist())
    ]
    kept, best = screen_entries(Arrivals(positions, values), spec, warmup)
    slow = reference_screen(list(zip(positions.tolist(), items)), spec, warmup)
    assert positions[kept].tolist() == [item.id for item in slow]
    assert best == optimal_matching(slow, spec)
    if not np.array_equal(positions, np.arange(len(positions))):
        return
    res = greedy_screen(Instance.from_values(values), spec, warmup, trace=True)
    assert res.retained_ids == tuple(item.id for item in slow)
    assert res.final_solution == best
    assert [(s.step, s.item_id) for s in res.trace] == [(pos, pos) for pos in positions.tolist()]
    so_far = []
    for step, item in zip(res.trace, items):
        assert step.retained == (item in slow)
        so_far += [item] if step.retained else []
        assert step.running_value == optimal_matching(so_far, spec).value


# gate shapes: d and the most properties an item owns
GATE_SHAPES = {"d1": (1, 1), "disjoint-d2": (2, 1), "overlap-d2": (2, 2), "overlap-d3": (3, 3)}


@pytest.mark.parametrize("shape", sorted(GATE_SHAPES))
class TestGateEdges:
    """The block gate against the ungated reference where the first block
    starts, or where there is none."""

    @staticmethod
    def arrivals(shape, n, seed):
        d, max_props = GATE_SHAPES[shape]
        rng = np.random.default_rng(seed)
        items = rand_items(rng, n, d, value_grid=TIE_GRID, max_props=max_props)
        caps = tuple(int(c) for c in rng.integers(1, 4, size=d))
        return Instance(items).columns(d), ConstraintSpec(caps), rng

    def test_every_warmup_up_to_n(self, shape):
        # warmups at, between and past the ends of the k, 2k, ... blocks
        for t in range(3):
            values, spec, _ = self.arrivals(shape, 20, 810 + t)
            for warmup in range(21):
                screen_matches_reference(np.arange(20), values, spec, warmup)

    def test_fewer_arrivals_than_k(self, shape):
        for n in range(4):
            values, spec, _ = self.arrivals(shape, n, 820 + n)
            spec = ConstraintSpec(tuple(c + 1 for c in spec.caps))
            assert n < spec.k
            for warmup in range(n + 1):
                screen_matches_reference(np.arange(n), values, spec, warmup)

    def test_empty_arrivals(self, shape):
        d = GATE_SHAPES[shape][0]
        spec = ConstraintSpec((1,) * d)
        kept, best = screen_entries(Arrivals(np.arange(0), np.empty((0, d))), spec, 0)
        assert kept == []
        assert best == optimal_matching([], spec)
        res = greedy_screen(Instance.from_values(np.empty((0, d))), spec, 0, trace=True)
        assert (res.retained_ids, res.trace, res.final_solution) == ((), (), best)

    def test_survivors_skip_past_the_warmup(self, shape):
        # a policy's survivors: ascending positions with gaps, the warmup
        # falling in a gap or on a survivor
        for t in range(6):
            values, spec, rng = self.arrivals(shape, 24, 830 + t)
            positions = np.sort(rng.choice(80, size=24, replace=False))
            for warmup in {0, 1, int(positions[5]), int(positions[5]) + 1, 40, 80}:
                screen_matches_reference(positions, values, spec, warmup)


# contender shapes: distribution, caps, n and delta
CONTENDER_SHAPES = {
    "d1": (DistributionSpec("single-property-uniform", 1), (10,), 10_000, 1e-3),
    "disjoint-d2": (DistributionSpec("disjoint-properties-uniform", 2), (2, 1), 1000, 0.1),
    "overlap-d3": (
        DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3)), (2, 2, 2), 1000, 0.1
    ),
}


@pytest.mark.parametrize("shape", sorted(CONTENDER_SHAPES))
def test_contenders_scale_with_the_kept_arrivals(monkeypatch, shape):
    # the arrivals the block gates let through to the per-arrival loop are
    # at most twice the kept ones plus the first block's k, and the fewest
    # blocks of k, 2k, 4k, ... arrivals that cover the stream past the warmup
    contenders = []
    real = greedy._clears

    def counting(values, floors):
        passed, hits = real(values, floors)
        contenders.append(int(np.count_nonzero(passed)))
        return passed, hits

    monkeypatch.setattr(greedy, "_clears", counting)
    dist, caps, n, delta = CONTENDER_SHAPES[shape]
    spec = ConstraintSpec(caps)
    warmup = warmup_length(n, spec.k, delta)
    for t in range(20):
        inst = sample_instance(dist, n, 9500 + t)
        contenders.clear()
        kept, _ = screen_entries(Arrivals(inst.ids, inst.columns(spec.d)), spec, warmup)
        assert sum(contenders) <= 2 * len(kept) + spec.k
        assert len(contenders) == (-(-(n - warmup) // spec.k)).bit_length()


def path_steps_match_full_solves(values: np.ndarray, spec: ConstraintSpec, warmup: int) -> int:
    """Run the path step on every arrival past ``warmup``, gated or not, and
    check each keep decision and each new optimum against the Hungarian
    reference over the optimum's items plus the arrival.  Returns the final
    optimum's number of real items."""
    shift = 1074 + ((spec.k + 1) * (len(values) + 1)).bit_length()
    held = Held(spec.d)
    for i, row in enumerate(values.tolist()):
        if i < warmup:
            continue
        optimum = sorted(y for ys in held for y in ys)
        ids, rows = [y[0] for y in optimum] + [i], [y[1] for y in optimum] + [row]
        ref = reference_assignment(ids, rows, spec)
        before = [list(ys) for ys in held]
        kept = _path_step(held, (i, row, _weights(i, row, shift)), spec.caps)
        assert kept == (i in ref.real_ids())
        if not kept:
            assert held == before
        assert sorted(y[0] for ys in held for y in ys) == list(ref.real_ids())
        value = math.fsum(y[1][p] for p, ys in enumerate(held) for y in ys)
        assert value.hex() == ref.value.hex()
        # a valid assignment: each item at a property it owns, no property over its cap
        assert all(y[1][p] == y[1][p] for p, ys in enumerate(held) for y in ys)
        assert all(len(ys) <= cap for ys, cap in zip(held, spec.caps))
    return sum(map(len, held))


class TestPathStep:
    @pytest.mark.parametrize("grid", [TIE_GRID, SPECIAL_VALUES], ids=["ties", "special"])
    def test_decisions_and_optima_match_the_full_solve(self, grid):
        rng = np.random.default_rng(300 + len(grid))
        for t in range(45):
            d = 2 + t % 3
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 4, size=d)))
            items = rand_items(rng, int(rng.integers(1, 30)), d, value_grid=grid)
            # warmup 0 first, so the id-0 arrival meets the empty optimum
            warmup = 0 if t < 3 else int(rng.integers(0, 3))
            path_steps_match_full_solves(Instance(items).columns(d), spec, warmup)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sampled_overlap_streams_match_the_full_solve(self, d):
        membership = (0.5, 0.4, 0.3, 0.6)[:d]
        for t in range(4):
            spec = ConstraintSpec(((2, 1, 2, 1), (2, 2, 2, 3), (1, 3, 2, 2), (1, 1, 1, 1))[t][:d])
            dist = DistributionSpec("overlap-bernoulli", d, membership)
            inst = sample_instance(dist, 150, 500 + 10 * d + t)
            warmup = warmup_length(150, spec.k, 0.1) if t else 0
            assert path_steps_match_full_solves(inst.columns(d), spec, warmup) > 0

    def test_the_least_subnormal_outweighs_any_id_sum(self):
        # 5e-324 is one unit of the weights' value term, which B scales
        # above every id term: item 0 stays however many later ties arrive
        values = np.array([[5e-324, 5e-324]] + [[0.0, 0.0]] * 40)
        spec = ConstraintSpec((1, 1))
        assert path_steps_match_full_solves(values, spec, 0) == 2
        res = greedy_screen(Instance.from_values(values), spec, 0, trace=True)
        assert [s.running_value for s in res.trace] == [5e-324] * 41

    @pytest.mark.parametrize("first", [0.0, -0.0, 5e-324])
    def test_id_zero_at_warmup_zero_enters_ahead_of_a_dummy(self, first):
        # with value 0 the id-0 item ties a dummy on value and on the sum of
        # ids; counting id + 1 keeps the real item, as the solver's id order does
        values = np.array([[first, np.nan], [0.0, 0.0], [np.nan, 0.5]])
        spec = ConstraintSpec((1, 1))
        assert path_steps_match_full_solves(values, spec, 0) == 2
        kept, _ = screen_entries(Arrivals(np.arange(3), values), spec, 0)
        assert kept[0] == 0


def check_potentials(held: Held, caps: tuple[int, ...]) -> None:
    """Hold the cached move rows, drops and potentials of ``held`` to ones
    rebuilt from its items, with ``reach`` taken over every simple path."""
    d = len(caps)
    move = [
        [
            None if q == p else max(
                (y[2][q] - y[2][p] for y in held[p] if y[2][q] is not None), default=None
            )
            for q in range(d)
        ]
        for p in range(d)
    ]
    drop = [
        0 if len(ys) < cap else max(-y[2][p] for y in ys)
        for p, (ys, cap) in enumerate(zip(held, caps))
    ]

    def best(p, seen):
        ends = [q for q in range(d) if move[p][q] is not None and q not in seen]
        return max([drop[p], *(move[p][q] + best(q, seen | {q}) for q in ends)])

    assert [[None if e is None else e[0] for e in row] for row in held.move] == move
    assert [g for g, _ in held.drop] == drop
    assert held.reach == [best(p, {p}) for p in range(d)]
    for p, ys in enumerate(held):
        # each cached item sits at p and is worth its gain
        for q, e in enumerate(held.move[p]):
            assert e is None or (e[1] in ys and e[1][2][q] - e[1][2][p] == e[0])
        gain, y = held.drop[p]
        assert (y is None) == (len(ys) < caps[p])
        assert y is None or (y in ys and -y[2][p] == gain)
        # the pointers walk a simple path worth reach[p]
        gain, seen, q = 0, {p}, p
        while held.nxt[q] is not None:
            gain, q = gain + held.move[q][held.nxt[q]][0], held.nxt[q]
            assert q not in seen
            seen.add(q)
        assert gain + held.drop[q][0] == held.reach[p]


# probe values: a value's extremes (both zeros, the least subnormal, 1) and ties
PROBES = (*SPECIAL_VALUES, *TIE_GRID)


class TestPotentials:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize(
        "grid", [TIE_GRID, SPECIAL_VALUES, None], ids=["ties", "special", "continuous"]
    )
    def test_cached_potentials_match_fresh_ones(self, monkeypatch, d, grid):
        # after every step of the greedy pass (its weights) and of the solver's
        # insertions (its layer-4 weights), kept or not
        steps = {greedy: 0, matching: 0}
        for module in steps:
            real = module._path_step

            def step(held, arrival, caps, module=module, real=real):
                kept = real(held, arrival, caps)
                check_potentials(held, caps)
                steps[module] += 1
                return kept

            monkeypatch.setattr(module, "_path_step", step)
        rng = np.random.default_rng(700 + d)
        dist = DistributionSpec("overlap-bernoulli", d, (0.5, 0.4, 0.3, 0.6)[:d])
        for t in range(4):
            spec = ConstraintSpec(tuple(int(c) for c in rng.integers(1, 4, size=d)))
            values = sample_instance(dist, 120, 710 + 10 * d + t).columns(d)
            if grid is not None:
                draws = np.array(grid)[rng.integers(0, len(grid), size=values.shape)]
                values = np.where(values == values, draws, np.nan)
            warmup = warmup_length(120, spec.k, 0.1) if t else 0
            screen_entries(Arrivals(np.arange(len(values)), values), spec, warmup)
            matching._solve(Instance.from_values(values), spec)
        assert steps[greedy] > 0 and steps[matching] > 0

    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(1, 3), min_size=d, max_size=d),
                st.lists(
                    st.lists(
                        st.one_of(st.none(), st.sampled_from(PROBES), st.floats(0.0, 1.0)),
                        min_size=d,
                        max_size=d,
                    ),
                    min_size=1,
                    max_size=30,
                ),
            )
        )
    )
    @example(([1, 1], [[5e-324, 5e-324]] + [[0.0, 0.0]] * 3))
    @example(([2, 1, 1], [[0.5, 0.5, None], [0.5, None, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.5]]))
    def test_floors_are_sound_and_only_rise(self, case):
        # no value below a property's floor passes the exact check there,
        # whatever the arrival's id; a block's floors can be taken at its start
        # because a pass's potentials never rise
        caps, rows = case
        rows = [[math.nan if v is None else v for v in row] for row in rows]
        rows = [row for row in rows if any(v == v for v in row)]
        spec, d, n = ConstraintSpec(tuple(caps)), len(caps), len(rows)
        # as screen_entries sets it for positions 0..n-1
        shift = 1074 + ((spec.k + 1) * (n + 1)).bit_length()
        held = Held(d)
        for i, row in enumerate(rows):
            for p, floor in enumerate(greedy._floors(held.reach, shift)):
                near = (math.nextafter(floor, -math.inf), floor, math.nextafter(floor, math.inf))
                for v in (*near, *PROBES, *row):
                    if 0.0 <= v < floor:
                        probe = [v if q == p else math.nan for q in range(d)]
                        for x in (0, n - 1):
                            assert _weights(x, probe, shift)[p] + held.reach[p] <= 0
            before = held.reach
            _path_step(held, (i, row, _weights(i, row, shift)), spec.caps)
            assert all(a <= b for a, b in zip(held.reach, before))


# overlap shapes of the golden greedy digest: membership and caps per d
GOLDEN_OVERLAP = {
    2: ((0.6, 0.5), (2, 3)),
    3: ((0.5, 0.4, 0.3), (2, 2, 2)),
    4: ((0.5, 0.4, 0.3, 0.6), (1, 3, 2, 2)),
}


def test_overlap_greedy_golden_digest():
    # kept indices and every trace step, value bits included, on sampled
    # overlap streams and their copies rounded to quarters (ties); the
    # digest was taken while each contender was decided by a full solve
    h = hashlib.sha256()
    for d, (membership, caps) in sorted(GOLDEN_OVERLAP.items()):
        spec = ConstraintSpec(caps)
        for t in range(6):
            dist = DistributionSpec("overlap-bernoulli", d, membership)
            inst = sample_instance(dist, 400, 9100 + 10 * d + t)
            values = inst.columns(d)
            if t % 2:
                values = np.round(values * 4) / 4
            warmup = warmup_length(400, spec.k, 0.1) if t < 4 else t - 4
            res = greedy_screen(Instance.from_values(values), spec, warmup, trace=True)
            h.update(f"{list(res.retained_ids)}\n".encode())
            for s in res.trace:
                h.update(f"{s.step}|{s.item_id}|{s.retained}|{s.running_value.hex()}\n".encode())
    assert h.hexdigest() == "0693127413785d965ac2620ec89d9dbbf7a68ab1548e0c04a9d2eb52a9acaedd"


WARMUP_SHAPES = {
    "single": (DistributionSpec("single-property-uniform", 1), (5,)),
    "disjoint": (DistributionSpec("disjoint-properties-uniform", 2), (2, 1)),
    "overlap": (DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3)), (1, 1, 1)),
}


@pytest.mark.parametrize("shape", sorted(WARMUP_SHAPES))
def test_trial_fails_exactly_when_an_optimal_item_arrives_in_the_warmup(shape):
    # with continuous values the optimum is unique, and warmup is the
    # greedy pass's only failure source
    dist, caps = WARMUP_SHAPES[shape]
    spec = ConstraintSpec(caps)
    n, delta = 300, 0.1
    warmup = warmup_length(n, spec.k, delta)
    failures = 0
    for t in range(100):
        inst = sample_instance(dist, n, derive_seed(404, shape, t))
        res = greedy_screen(inst, spec, warmup)
        full = optimal_matching(inst.items, spec)
        success = exact_solution_value(inst.items, res.final_solution) == exact_solution_value(
            inst.items, full
        )
        assert success == all(i >= warmup for i in full.real_ids())
        failures += not success
    assert failures > 0
