import hashlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from screenmatch import (
    ConfigError,
    ConstraintSpec,
    DistributionSpec,
    InputError,
    Instance,
    Item,
    derive_seed,
    is_dummy_id,
    optimal_matching,
    read_constraint_spec,
    read_distribution_spec,
    read_instance,
    sample_instance,
    validate_instance,
    validate_items,
    write_constraint_spec,
    write_distribution_spec,
    write_instance,
)
import screenmatch.core as core
from screenmatch.core import DUMMY_ID_BASE, _check_count, require_valid

from helpers import (
    SPECIAL_VALUES,
    TIE_GRID,
    dummy_items,
    format_value,
    near_midpoint_literals,
    rand_bad_items,
    rand_items,
    reference_overlap_values,
    reference_violations,
    reference_write,
)


class TestConstraintSpec:
    def test_derived_counts(self):
        spec = ConstraintSpec((1, 2, 3))
        assert spec.d == 3
        assert spec.k == 6

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            ConstraintSpec(())

    @pytest.mark.parametrize("caps", [(0,), (-1, 2), (1.5,)])
    def test_rejects_bad_caps(self, caps):
        with pytest.raises(ConfigError):
            ConstraintSpec(caps)


class TestDistributionSpec:
    def test_single_property_requires_d1(self):
        DistributionSpec("single-property-uniform", 1)
        with pytest.raises(ConfigError):
            DistributionSpec("single-property-uniform", 2)

    def test_overlap_needs_membership(self):
        DistributionSpec("overlap-bernoulli", 2, membership=(0.5, 0.7))
        with pytest.raises(ConfigError):
            DistributionSpec("overlap-bernoulli", 2)
        with pytest.raises(ConfigError):
            DistributionSpec("overlap-bernoulli", 2, membership=(0.5,))
        with pytest.raises(ConfigError):
            DistributionSpec("overlap-bernoulli", 2, membership=(0.0, 0.0))
        with pytest.raises(ConfigError):
            DistributionSpec("overlap-bernoulli", 2, membership=(0.5, 1.2))

    @pytest.mark.parametrize("membership", [(1e-17, 0.0), (1e-17, 1e-17), (0.0, 5e-324, 0.0)])
    def test_overlap_that_never_accepts_in_floating_point(self, membership):
        # each passes the range check, yet 1 - prod(1 - q) rounds to 0.0
        assert core._acceptance(membership) == 0.0
        with pytest.raises(ConfigError, match="no chance to own a property"):
            DistributionSpec("overlap-bernoulli", len(membership), membership)

    def test_least_accepting_overlap_is_kept(self):
        # 1 - 1.2e-16 rounds to the double below 1, so a draw can own it
        assert core._acceptance((1.2e-16,)) > 0.0
        DistributionSpec("overlap-bernoulli", 1, (1.2e-16,))

    def test_membership_rejected_elsewhere(self):
        with pytest.raises(ConfigError):
            DistributionSpec("disjoint-properties-uniform", 2, membership=(0.5, 0.5))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DistributionSpec("zipf", 1)

    @pytest.mark.parametrize("d", [0, -1, 1.0])
    def test_d_below_one_or_not_an_integer(self, d):
        with pytest.raises(ConfigError, match=rf"^d must be a positive integer, got {d!r}$"):
            DistributionSpec("disjoint-properties-uniform", d)


class TestCheckCount:
    # a bool is an int; a numpy integer is not
    @pytest.mark.parametrize("value, least", [(0, 0), (1, 1), (True, 1), (False, 0)])
    def test_an_int_of_at_least_its_least_passes(self, value, least):
        _check_count(value, "n", least)

    @pytest.mark.parametrize(
        "value, least, kind",
        [
            (-1, 0, "nonnegative"),
            (0, 1, "positive"),
            (False, 1, "positive"),
            (1.0, 0, "nonnegative"),
            ("3", 0, "nonnegative"),
            (None, 1, "positive"),
            (np.int64(3), 0, "nonnegative"),
        ],
    )
    def test_anything_else_is_refused_by_name(self, value, least, kind):
        with pytest.raises(ConfigError) as exc:
            _check_count(value, "--size", least)
        assert str(exc.value) == f"--size must be a {kind} integer, got {value!r}"


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "stream", 0) == derive_seed(1, "stream", 0)

    def test_distinct_across_labels_and_indices(self):
        seeds = {
            derive_seed(1, "stream", 0),
            derive_seed(1, "stream", 1),
            derive_seed(1, "train", 0),
            derive_seed(2, "stream", 0),
        }
        assert len(seeds) == 4

    def test_fits_in_63_bits(self):
        for t in range(50):
            assert 0 <= derive_seed(999, "x", t) < 2**63


class TestSampling:
    def test_empty(self):
        inst = sample_instance(DistributionSpec("single-property-uniform", 1), 0, 1)
        assert inst.n == 0

    def test_deterministic(self):
        dist = DistributionSpec("overlap-bernoulli", 3, membership=(0.6, 0.3, 0.9))
        a = sample_instance(dist, 40, 5)
        b = sample_instance(dist, 40, 5)
        assert a == b

    def test_ids_are_positions(self):
        # greedy and policy-fixed trials rely on this and skip the stream rule
        for dist, caps in [
            (DistributionSpec("single-property-uniform", 1), (2,)),
            (DistributionSpec("disjoint-properties-uniform", 2), (1, 1)),
            (DistributionSpec("overlap-bernoulli", 3, membership=(0.6, 0.3, 0.9)), (1, 2, 1)),
        ]:
            inst = sample_instance(dist, 30, 7)
            assert [item.id for item in inst] == list(range(30))
            # an unmarked copy gets every rule, where the sample returns at once
            copy = Instance.from_values(inst.values.copy(), inst.ids.copy())
            assert validate_instance(copy, ConstraintSpec(caps)) == ()

    @given(
        st.sampled_from(core.DIST_KINDS),
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.one_of(st.sampled_from((0.0, 1.0, 1e-3, 1.0 - 1e-3)), st.floats(1e-3, 1.0)),
                min_size=d,
                max_size=d,
            )
        ),
        st.integers(0, 40),
        st.integers(0, 2**32),
    )
    @example("overlap-bernoulli", [1e-3, 0.0], 2, 1)
    @example("disjoint-properties-uniform", [0.5] * 4, 1, 0)
    @example("single-property-uniform", [0.5], 0, 0)
    def test_samples_are_valid_by_construction(self, kind, membership, n, seed):
        # the rule set trials skip on sampled streams: every spec with at least
        # the distribution's d finds an unmarked copy valid, and the arrays
        # that would let a sample go stale refuse writes
        d = 1 if kind == "single-property-uniform" else len(membership)
        if kind == "overlap-bernoulli":
            assume(max(membership) > 0.0)
            dist = DistributionSpec(kind, d, tuple(membership))
        else:
            dist = DistributionSpec(kind, d)
        inst = sample_instance(dist, n, seed)
        copy = Instance.from_values(inst.values.copy(), inst.ids.copy())
        for wider in range(d, 6):
            assert validate_instance(copy, ConstraintSpec((1,) * wider)) == ()
        for narrower in range(1, d):
            spec = ConstraintSpec((1,) * narrower)
            assert validate_instance(inst, spec) == validate_instance(copy, spec)
        with pytest.raises(ValueError):
            inst.values[:1] = 0.5
        with pytest.raises(ValueError):
            inst.ids[:1] = 0

    def test_a_sample_checked_against_fewer_properties_gets_every_rule(self):
        dist = DistributionSpec("overlap-bernoulli", 3, membership=(0.6, 0.3, 0.9))
        report = validate_instance(sample_instance(dist, 30, 7), ConstraintSpec((1, 1)))
        assert report and {v.kind for v in report} == {"unknown-property"}

    def test_a_sample_made_writeable_again_gets_every_rule(self):
        inst = sample_instance(DistributionSpec("disjoint-properties-uniform", 2), 30, 7)
        inst.values.flags.writeable = True
        inst.values[np.isfinite(inst.values)] = 1.5
        report = validate_instance(inst, ConstraintSpec((1, 1)))
        assert [v.kind for v in report] == ["value-out-of-range"] * 30

    def test_single_property_shape(self):
        inst = sample_instance(DistributionSpec("single-property-uniform", 1), 100, 3)
        for item in inst:
            assert set(item.props) == {0}
            assert 0.0 <= item.props[0] <= 1.0

    def test_disjoint_class_frequencies(self):
        # each class frequency within 5 binomial sd of 1/d
        d, n = 4, 100_000
        inst = sample_instance(DistributionSpec("disjoint-properties-uniform", d), n, 9)
        counts = [0] * d
        for item in inst:
            (p,) = item.props
            counts[p] += 1
        sd = math.sqrt(n * (1 / d) * (1 - 1 / d))
        for c in counts:
            assert abs(c - n / d) <= 5 * sd
        assert abs(counts[0] / n - 0.25) <= 0.01

    def test_overlap_past_the_uniforms_limit_is_refused_before_drawing(self):
        # 1e12 expected uniforms per item; the buffer alone would be 8 TiB
        dist = DistributionSpec("overlap-bernoulli", 1, membership=(1e-12,))
        with pytest.raises(ConfigError, match=r"= 1e\+12 uniforms per item, .* limit of 2\*\*20"):
            sample_instance(dist, 1, 0)

    def test_overlap_always_nonempty(self):
        dist = DistributionSpec("overlap-bernoulli", 3, membership=(0.1, 0.05, 0.1))
        inst = sample_instance(dist, 300, 11)
        for item in inst:
            assert len(item.props) >= 1
            for v in item.props.values():
                assert 0.0 <= v <= 1.0

    def test_negative_n(self):
        with pytest.raises(ConfigError, match=r"^n must be a nonnegative integer, got -1$"):
            sample_instance(DistributionSpec("single-property-uniform", 1), -1, 0)

    @pytest.mark.parametrize(
        "dist, seed, digest",
        [
            (
                DistributionSpec("single-property-uniform", 1),
                11,
                "17794e688fb71f9a64b416a5d311f99577859f42287480ee2abea8866d0ce8bc",
            ),
            (
                DistributionSpec("disjoint-properties-uniform", 3),
                12,
                "6ba5f5a5c15b12214bc82f91589b98baca0707bd7ce118471eebbdf58cac2e66",
            ),
            (
                DistributionSpec("overlap-bernoulli", 3, membership=(0.5, 0.4, 0.3)),
                13,
                "6e6b1f8777a68610686fc467968d92c4379f38d8318dc46f72e34eead206c8a3",
            ),
        ],
        ids=["single", "disjoint", "overlap"],
    )
    def test_golden_streams(self, dist, seed, digest):
        # ids, property order and every value bit, with exact Python types
        h = hashlib.sha256()
        for item in sample_instance(dist, 500, seed):
            assert type(item.id) is int
            h.update(repr(item.id).encode())
            for p, v in item.props.items():
                assert type(p) is int and type(v) is float
                h.update(f"|{p}:{v.hex()}".encode())
            h.update(b"\n")
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "membership, n, seed, digest",
        [
            ((0.3,), 300, 21, "31abecdccc8b14cf771abb8fb37e465861f38d5a7c6f704a2ee4b3e620c02151"),
            ((0.6, 0.5), 300, 22, "870da646bef91d8d07a7c136c60f51959d173503ca77fb22c7a9a6fd5b6cf5ab"),
            ((1.0, 0.0, 0.2), 300, 23, "760ba61c69017a89d5e2c23e90876fecc48717a7efa915316e547fe8189473cb"),
            (
                (0.05, 0.02, 0.01, 0.03),
                300,
                24,
                "de53dc08765137f0b6b4e5cbaa8a1a2d69aedf0a44cd4e975a9b5ab60d9eb4f1",
            ),
            ((0.5, 0.4, 0.3), 0, 25, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            # the draws outrun the first buffer of uniforms: seeds 1 and 8
            # double it twice, seed 4 once
            ((0.01, 0.0), 1, 1, "def6f510a90df2d8d03113b82305cffdc2e88866906bea1453ab35c478800f6f"),
            ((0.01, 0.0), 1, 8, "a933bebf7699db59b4d7dcc02cc3b0188e576a15fec00ce288618ea0f1fe5d0b"),
            (
                (0.05, 0.02, 0.01, 0.03),
                5,
                4,
                "66c919f5bd05c24e03fb5ad8755c3643a40a2a7b9991426f53b5e1463e537f71",
            ),
        ],
        ids=["d1", "d2", "certain-and-never", "sparse-d4", "empty", "extend-1", "extend-8", "extend-d4"],
    )
    def test_overlap_golden_streams(self, membership, n, seed, digest):
        # digested as test_golden_streams digests its streams
        dist = DistributionSpec("overlap-bernoulli", len(membership), membership)
        h = hashlib.sha256()
        for item in sample_instance(dist, n, seed):
            h.update(repr(item.id).encode())
            for p, v in item.props.items():
                h.update(f"|{p}:{v.hex()}".encode())
            h.update(b"\n")
        assert h.hexdigest() == digest

    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.lists(
                st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.01, 1.0)), min_size=d, max_size=d
            )
        ),
        st.integers(0, 300),
        st.integers(0, 2**32),
    )
    @settings(max_examples=200)
    @example([0.01, 0.0], 1, 1)
    @example([1.0, 1.0, 1.0, 1.0, 1.0], 300, 0)
    def test_overlap_matches_the_per_draw_loop(self, membership, n, seed):
        assume(max(membership) > 0.0)
        dist = DistributionSpec("overlap-bernoulli", len(membership), tuple(membership))
        got = sample_instance(dist, n, seed).values
        want = reference_overlap_values(dist, n, seed)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestDummies:
    @pytest.mark.parametrize(
        "caps,count", [((1, 2), 3), ((2,), 2), ((1,), 1)]
    )
    def test_count_and_shape(self, caps, count):
        spec = ConstraintSpec(caps)
        ds = dummy_items(spec)
        assert len(ds) == count
        for item in ds:
            assert is_dummy_id(item.id)
            assert item.props == {p: 0.0 for p in range(spec.d)}

    def test_pass_relaxed_validation(self):
        # dummies are not real items: the item rules report each one once
        spec = ConstraintSpec((2, 1))
        ds = dummy_items(spec)
        report = validate_items(ds, spec)
        assert [(v.kind, v.item_id) for v in report] == [("dummy-id", d.id) for d in ds]


class TestValidation:
    SPEC = ConstraintSpec((1, 1))

    def test_valid_instance_empty_report(self):
        inst = Instance((Item(0, {0: 0.5}), Item(1, {1: 0.25})))
        assert validate_instance(inst, self.SPEC) == ()

    def test_value_out_of_range(self):
        report = validate_items([Item(0, {0: 1.5})], self.SPEC)
        assert [v.kind for v in report] == ["value-out-of-range"]

    def test_nan_value(self):
        report = validate_items([Item(0, {0: float("nan")})], self.SPEC)
        assert [v.kind for v in report] == ["value-out-of-range"]

    def test_unknown_property(self):
        report = validate_items([Item(0, {2: 0.5})], self.SPEC)
        assert [v.kind for v in report] == ["unknown-property"]

    def test_duplicate_ids(self):
        report = validate_items([Item(0, {0: 0.1}), Item(0, {1: 0.2})], self.SPEC)
        assert "duplicate-id" in {v.kind for v in report}

    def test_empty_props(self):
        report = validate_items([Item(0, {})], self.SPEC)
        assert "empty-props" in {v.kind for v in report}

    @pytest.mark.parametrize("p", [-1, 0.0, "0"])
    def test_property_must_be_an_index_of_the_spec(self, p):
        report = validate_items([Item(0, {p: 0.5})], self.SPEC)
        assert [v.kind for v in report] == ["unknown-property"]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), -0.1, 10**400])
    def test_infinite_and_negative_values(self, value):
        report = validate_items([Item(0, {0: value})], self.SPEC)
        assert [v.kind for v in report] == ["value-out-of-range"]

    @pytest.mark.parametrize("value", ["0.5", None, True, False, np.True_])
    def test_value_that_is_not_a_number(self, value):
        report = validate_items([Item(0, {0: value})], self.SPEC)
        assert [(v.kind, v.detail) for v in report] == [
            ("value-out-of-range", f"value {value!r} is not a number")
        ]

    @pytest.mark.parametrize("value", [0, 1, np.float32(0.5), np.int64(1)])
    def test_other_numbers_in_range_stay_valid(self, value):
        assert validate_items([Item(0, {0: value})], self.SPEC) == ()

    @pytest.mark.parametrize("p", [True, False])
    def test_bool_property_is_unknown(self, p):
        report = validate_items([Item(0, {p: 0.5})], self.SPEC)
        assert [v.kind for v in report] == ["unknown-property"]

    def test_solver_reports_a_bad_value_instead_of_crashing(self):
        with pytest.raises(InputError, match="value-out-of-range at item 0"):
            optimal_matching([Item(0, {0: "0.5"})], self.SPEC)

    def test_require_valid_names_count_kind_and_item(self):
        require_valid((), "stream")
        items = [Item(0, {0: 0.5}), Item(1, {0: 1.7}), Item(2, {5: 0.1})]
        report = validate_items(items, self.SPEC)
        with pytest.raises(InputError) as info:
            require_valid(report, "stream")
        assert str(info.value) == (
            "invalid stream: 2 violation(s), first is value-out-of-range at item 1"
            " (value 1.7 outside [0, 1])"
        )

    def test_instance_rejects_dummy_and_misplaced_ids(self):
        inst = Instance((Item(5, {0: 0.3}), Item(DUMMY_ID_BASE, {0: 0.0, 1: 0.0})))
        kinds = {v.kind for v in validate_instance(inst, self.SPEC)}
        assert "id-position-mismatch" in kinds
        assert "dummy-id" in kinds


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_columnar_rules_equal_the_item_loop(self, d):
        # same violations, in the same order, as the per-item rule loop
        rng = np.random.default_rng(600 + d)
        spec = ConstraintSpec((1,) * d)
        faulty = 0
        for _ in range(60):
            items = rand_bad_items(rng, int(rng.integers(0, 25)), d)
            expected = reference_violations(items, spec, positions=True)
            assert validate_instance(Instance(items), spec) == expected
            assert validate_items(items, spec) == reference_violations(items, spec)
            faulty += bool(expected)
        assert faulty >= 40

    def test_file_violations_name_their_line(self):
        text = '{"id": 0, "props": [[0, 0.5]]}\n\n{"id": 1, "props": [[1000000000, NaN]]}\n'
        inst = read_instance(io.StringIO(text), source="s.jsonl")
        report = validate_instance(inst, self.SPEC)
        assert [(v.kind, v.item_id, v.where) for v in report] == [
            ("unknown-property", 1, "s.jsonl:3"),
            ("value-out-of-range", 1, "s.jsonl:3"),
        ]
        with pytest.raises(InputError) as info:
            require_valid(report, "stream")
        assert str(info.value) == (
            "invalid stream: 2 violation(s), first is unknown-property at item 1"
            " (s.jsonl:3: property 1000000000 outside 0..1)"
        )


class TestColumns:
    def test_matrix_marks_missing_properties_with_nan(self):
        inst = Instance((Item(0, {1: 0.25}), Item(1, {0: 0.5, 1: 1.0})))
        np.testing.assert_array_equal(inst.values, [[np.nan, 0.25], [0.5, 1.0]])
        np.testing.assert_array_equal(inst.columns(3)[:, 2], [np.nan, np.nan])
        assert inst.ids.tolist() == [0, 1]

    def test_sampled_items_are_built_from_the_matrix(self):
        dist = DistributionSpec("overlap-bernoulli", 3, membership=(0.5, 0.4, 0.3))
        inst = sample_instance(dist, 50, 3)
        assert inst.values.shape == (50, 3)
        for item, row in zip(inst, inst.values):
            assert item.props == {p: v for p, v in enumerate(row.tolist()) if not math.isnan(v)}

    def test_equals_only_an_instance_and_shows_its_size(self):
        inst = Instance((Item(0, {0: 0.5}),))
        assert inst == Instance((Item(0, {0: 0.5}),))
        assert not (inst == 5) and inst != 5
        assert repr(inst) == "Instance(n=1)"

    def test_take_keeps_ids(self):
        inst = sample_instance(DistributionSpec("single-property-uniform", 1), 10, 4)
        sub = inst.take(inst.values[:, 0] >= 0.5)
        assert sub.ids.tolist() == [item.id for item in inst if item.props[0] >= 0.5]
        assert sub.items == tuple(item for item in inst if item.props[0] >= 0.5)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# 0-4 properties per row, in any insertion order, two-digit indices included
rows_of_props = st.lists(
    st.dictionaries(st.integers(0, 11), st.one_of(st.sampled_from(SPECIAL_VALUES), unit), max_size=4),
    max_size=20,
)


def no_json(*args, **kwargs):
    raise AssertionError("a writer-form file took the per-line path")


class TestSerialization:
    @given(rows_of_props)
    @example([{0: 0.0}, {0: -0.0}, {0: 1.0}])
    @example([{3: 0.5, 0: -0.0, 2: 5e-324, 1: 1.0}, {}, {10: 0.1}])
    def test_instance_round_trip_bit_exact(self, rows):
        # compare bits: -0.0 == 0.0 would pass an Instance comparison
        inst = Instance(tuple(Item(i, props) for i, props in enumerate(rows)))
        buf = io.StringIO()
        write_instance(inst, buf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core.json, "loads", no_json)
            back = read_instance(io.StringIO(buf.getvalue()))
        assert back.ids.tolist() == inst.ids.tolist()
        assert back.values.tobytes() == inst.values.tobytes()

    @given(rows_of_props)
    @example([{1: -0.0, 0: 5e-324}, {}, {11: 1e-05, 2: 0.1, 0: 0.5, 1: 1.0}])
    def test_writer_writes_the_per_pair_reference_bytes(self, rows):
        inst = Instance(tuple(Item(i, props) for i, props in enumerate(rows)))
        got, want = io.StringIO(), io.StringIO()
        write_instance(inst, got)
        reference_write(inst, want)
        assert got.getvalue() == want.getvalue()

    @given(st.one_of(unit, st.just(-0.0)))
    def test_format_value_round_trips(self, v):
        assert math.copysign(1.0, json.loads(format_value(v))) == math.copysign(1.0, v)
        assert float(format_value(v)) == v

    def test_negative_zero_alone_changes_form(self):
        assert format_value(-0.0) == "-0.0"
        assert [format_value(v) for v in (0.0, 1.0, 0.5, 5e-324, -0.5)] == [
            "0", "1", "0.5", "4.9406564584124654e-324", "-0.5"
        ]

    def test_writer_spells_each_value_as_format_value(self):
        values = [0.0, -0.0, 1.0, 0.5, 5e-324, 1e-05, 0.1, -0.5]
        buf = io.StringIO()
        write_instance(Instance(tuple(Item(i, {0: v}) for i, v in enumerate(values))), buf)
        assert buf.getvalue() == "".join(
            f'{{"id": {i}, "props": [[0, {format_value(v)}]]}}\n' for i, v in enumerate(values)
        )

    def test_line_shape(self):
        buf = io.StringIO()
        write_instance(Instance((Item(0, {1: 0.5, 0: 0.25}),)), buf)
        obj = json.loads(buf.getvalue())
        assert obj == {"id": 0, "props": [[0, 0.25], [1, 0.5]]}

    def test_read_reports_line_number(self):
        with pytest.raises(InputError, match=":2:"):
            read_instance(io.StringIO('{"id": 0, "props": [[0, 0.5]]}\nnot json\n'))

    def test_read_enforces_positional_ids(self):
        with pytest.raises(InputError):
            read_instance(io.StringIO('{"id": 3, "props": [[0, 0.5]]}\n'))

    @pytest.mark.parametrize("item_id", ["0.0", '"0"'])
    def test_read_refuses_an_id_that_is_no_integer(self, item_id):
        text = f'{{"id": {item_id}, "props": [[0, 0.5]]}}\n'
        with pytest.raises(InputError, match="^s.jsonl:1: item id must be an integer$"):
            read_instance(io.StringIO(text), source="s.jsonl")

    def test_property_index_beyond_int64_reads_back_whole(self):
        text = f'{{"id": 0, "props": [[{10**30}, 0.5]]}}\n'
        inst = read_instance(io.StringIO(text), source="s.jsonl")
        assert inst.items == (Item(0, {10**30: 0.5}),)
        report = validate_instance(inst, ConstraintSpec((1,)))
        assert [(v.kind, v.where) for v in report] == [("unknown-property", "s.jsonl:1")]

    def test_read_names_source(self):
        with pytest.raises(InputError, match="stream.jsonl"):
            read_instance(io.StringIO("[]\n"), source="stream.jsonl")

    def test_constraint_spec_round_trip(self):
        spec = ConstraintSpec((2, 1, 4))
        buf = io.StringIO()
        write_constraint_spec(spec, buf)
        assert read_constraint_spec(io.StringIO(buf.getvalue())) == spec

    def test_constraint_spec_bad_file(self):
        with pytest.raises(InputError):
            read_constraint_spec(io.StringIO('{"caps": [0]}'))

    @pytest.mark.parametrize(
        "dist",
        [
            DistributionSpec("single-property-uniform", 1),
            DistributionSpec("disjoint-properties-uniform", 3),
            DistributionSpec("overlap-bernoulli", 2, membership=(0.25, 1.0)),
        ],
    )
    def test_distribution_round_trip(self, dist):
        buf = io.StringIO()
        write_distribution_spec(dist, buf)
        assert read_distribution_spec(io.StringIO(buf.getvalue())) == dist

    def test_distribution_bad_kind_becomes_input_error(self):
        with pytest.raises(InputError):
            read_distribution_spec(io.StringIO('{"kind": "zipf", "d": 1}'))


def per_line(fh, source: str = "s.jsonl") -> Instance:
    """The reader's per-line ``json.loads`` path: the reference for the bulk one."""
    n, entries, lines = core._read_lines(fh.read(), source)
    inst = Instance.__new__(Instance)
    inst._init(np.arange(n), entries=entries, lines=lines, source=source)
    return inst


def bits(inst: Instance) -> tuple:
    """Everything a read instance holds, as bytes and dtypes."""
    rows, props, vals, odd = inst.entries()
    arrays = (inst.ids, rows, props, vals, inst.lines)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays) + (odd, inst.source)


def outcome(read, text: str, handle=io.StringIO):
    try:
        return bits(read(handle(text), "s.jsonl"))
    except InputError as exc:
        return str(exc)


def writer_text(items) -> str:
    buf = io.StringIO()
    write_instance(Instance(items), buf)
    return buf.getvalue()


class TestReaderPaths:
    @pytest.mark.parametrize("d, max_props", [(1, 1), (2, 1), (3, 3)], ids=["d1", "disjoint", "overlap"])
    def test_writer_files_parse_in_bulk(self, monkeypatch, d, max_props):
        rng = np.random.default_rng(70 + d)
        texts = []
        for t in range(12):
            grid = (TIE_GRID, SPECIAL_VALUES, None)[t % 3]
            texts.append(writer_text(rand_items(rng, int(rng.integers(0, 60)), d, grid, max_props)))
        # no value at all: numpy reads a blank text as one number
        texts.append(writer_text([Item(i, {}) for i in range(3)]))
        assert any(", -0.0]" in text for text in texts)
        expected = [outcome(per_line, text) for text in texts]
        monkeypatch.setattr(core.json, "loads", no_json)
        for text, want in zip(texts, expected):
            assert outcome(read_instance, text) == want

    BASE = (
        '{"id": 0, "props": [[0, 0.25], [2, 0.5]]}\n'
        '{"id": 1, "props": [[1, 0.75]]}\n'
        '{"id": 2, "props": [[0, 1], [1, 0.125]]}\n'
    )
    PERTURBED = {
        "extra whitespace": BASE.replace('"id": 1,', '"id":  1 ,'),
        "swapped keys": BASE.replace('{"id": 1, "props": [[1, 0.75]]}', '{"props": [[1, 0.75]], "id": 1}'),
        "crlf": BASE.replace("\n", "\r\n"),
        "blank lines": BASE.replace("\n", "\n\n", 1) + "\n  \n",
        "no final newline": BASE.rstrip("\n"),
        "minus zero": BASE.replace("0.75", "-0"),
        "minus zero float": BASE.replace("0.75", "-0.0"),
        "negative": BASE.replace("0.75", "-0.75"),
        "capital exponent": BASE.replace("0.75", "1E5"),
        "int value": BASE.replace("0.75", "1"),
        "long int value": BASE.replace("0.75", "9007199254740993"),
        "leading zero": BASE.replace("0.75", "01"),
        "leading zero id": BASE.replace('"id": 1,', '"id": 01,'),
        "trailing point": BASE.replace("0.75", "1."),
        "leading point": BASE.replace("0.75", ".5"),
        "nan": BASE.replace("0.75", "NaN"),
        "unsorted property": BASE.replace("[[0, 0.25], [2, 0.5]]", "[[2, 0.5], [0, 0.25]]"),
        "duplicated property": BASE.replace("[[0, 0.25], [2, 0.5]]", "[[2, 0.25], [2, 0.5]]"),
        "wrong id": BASE.replace('"id": 1,', '"id": 4,'),
        "16-digit id": BASE.replace('"id": 1,', '"id": 1000000000000001,'),
        "15-digit property": BASE.replace("[[1, 0.75]]", "[[999999999999999, 0.75]]"),
        "16-digit property": BASE.replace("[[1, 0.75]]", "[[1000000000000000, 0.75]]"),
        "huge exponent": BASE.replace("0.75", "1e999"),
        "underflow": BASE.replace("0.75", "1e-400"),
        "subnormal": BASE.replace("0.75", "4.9406564584124654e-324"),
        "21 fraction digits": BASE.replace("0.75", "0.123456789012345678901"),
        "empty props": BASE.replace("[[1, 0.75]]", "[]"),
        "empty file": "",
        "blank file": "\n",
        "non-ascii": BASE.replace("0.75", "0.75\u00a0"),
        "not json": BASE + "not json\n",
    }

    @pytest.mark.parametrize("name", list(PERTURBED))
    def test_perturbed_files_read_as_the_per_line_path_reads_them(self, name):
        text = self.PERTURBED[name]
        assert outcome(read_instance, text) == outcome(per_line, text)

    def test_ids_at_digit_length_boundaries(self):
        dist = DistributionSpec("overlap-bernoulli", 3, membership=(0.5, 0.4, 0.3))
        buf = io.StringIO()
        write_instance(sample_instance(dist, 1001, 3), buf)
        text = buf.getvalue()
        assert core._read_writer_form(text.encode()) is not None
        assert outcome(read_instance, text) == outcome(per_line, text)
        lines = text.split("\n")
        # an id one digit short or long, and a long one whose digits begin right
        for lineno, wrong in ((10, 19), (11, 1), (1001, 100), (101, 1000)):
            right = lineno - 1
            head = f'{{"id": {right}, '
            assert lines[right].startswith(head)
            edited = [*lines[:right], f'{{"id": {wrong}, ' + lines[right][len(head):], *lines[lineno:]]
            copy = "\n".join(edited)
            assert core._read_writer_form(copy.encode()) is None
            assert outcome(read_instance, copy) == outcome(per_line, copy) == (
                f"s.jsonl:{lineno}: item id {wrong} does not equal its position {right}"
            )

    def test_the_float_parse_sees_only_the_values(self, monkeypatch):
        text = writer_text(rand_items(np.random.default_rng(9), 120, 12, SPECIAL_VALUES, 4))
        parse, parsed = np.fromstring, []

        def counted(*args, **kwargs):
            numbers = parse(*args, **kwargs)
            parsed.append(len(numbers))
            return numbers

        monkeypatch.setattr(np, "fromstring", counted)
        inst = read_instance(io.StringIO(text))
        assert parsed == [len(inst.entries()[0])]

    def test_values_read_as_float_reads_them(self, monkeypatch):
        rng = np.random.default_rng(3217)
        printed = np.ldexp(rng.random(20_000), rng.integers(-40, 1, 20_000))
        literals = [
            *near_midpoint_literals(rng, 100_000), *("%.17g" % v for v in printed.tolist()),
            "0", "1", "-0.0", "0.0", "2.4703282292062328e-324",
        ]
        data = "".join(f'{{"id": {i}, "props": [[0, {v}]]}}\n' for i, v in enumerate(literals)).encode()
        assert core._WRITER_FORM.fullmatch(data) is not None
        monkeypatch.setattr(core.json, "loads", no_json)
        want = np.array([float(v) for v in literals])
        assert read_instance(io.BytesIO(data)).entries()[2].tobytes() == want.tobytes()
        if np.finfo(np.longdouble).nmant > 52:
            # the literals do reach the midpoints: narrowing alone misreads some
            wide = np.fromstring(" ".join(literals), dtype=np.longdouble, sep=" ")
            assert wide.astype(np.float64).tobytes() != want.tobytes()

    def test_binary_and_text_handles_read_alike(self):
        dist = DistributionSpec("overlap-bernoulli", 3, membership=(0.5, 0.4, 0.3))
        buf = io.StringIO()
        write_instance(sample_instance(dist, 1001, 8), buf)
        for text in [*self.PERTURBED.values(), buf.getvalue()]:
            as_bytes = outcome(read_instance, text, lambda t: io.BytesIO(t.encode()))
            assert as_bytes == outcome(read_instance, text)

    def test_the_bulk_path_takes_what_it_can_and_no_more(self):
        taken = {name for name, text in self.PERTURBED.items() if core._read_writer_form(text.encode())}
        assert taken == {
            "minus zero float", "int value", "long int value", "15-digit property", "underflow",
            "subnormal", "empty props", "empty file",
        }

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="possessive quantifiers are 3.11 syntax")
    def test_the_plain_pattern_gives_the_possessive_verdict(self):
        # the reader matches with the plain pattern on Python 3.10
        plain, possessive = core._writer_form(b""), core._writer_form(b"+")
        rng = np.random.default_rng(5)
        texts = [*self.PERTURBED.values(), writer_text(rand_items(rng, 40, 3, TIE_GRID, 3))]
        verdicts = []
        for text in texts:
            data = text.encode()
            verdicts.append(possessive.fullmatch(data) is not None)
            assert (plain.fullmatch(data) is not None) == verdicts[-1]
        assert True in verdicts and False in verdicts
