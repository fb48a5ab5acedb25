"""Random instance builders and reference rules shared by the test modules."""

import itertools
import math
from fractions import Fraction
from numbers import Real
from typing import Sequence

import numpy as np

from screenmatch import (
    ConstraintSpec, DistributionSpec, Instance, Item, Solution, Violation, is_dummy_id,
    optimal_matching, validate_items,
)
from screenmatch.core import DUMMY_ID_BASE, require_valid
from screenmatch.matching import _finish


def rand_spec(rng: np.random.Generator, d_max: int = 3, k_max: int = 4) -> ConstraintSpec:
    d = int(rng.integers(1, d_max + 1))
    while True:
        caps = tuple(int(rng.integers(1, k_max + 1)) for _ in range(d))
        if sum(caps) <= k_max:
            return ConstraintSpec(caps)


def rand_items(
    rng: np.random.Generator,
    n: int,
    d: int,
    value_grid=None,
    max_props: int | None = None,
) -> list[Item]:
    """n items with random nonempty property subsets of at most max_props
    (default d) properties; values uniform, or drawn from value_grid to
    force ties.  max_props=1 gives the disjoint shape."""
    items = []
    for i in range(n):
        size = int(rng.integers(1, (max_props or d) + 1))
        props = rng.choice(d, size=size, replace=False)
        out = {}
        for p in props.tolist():
            if value_grid is None:
                out[int(p)] = float(rng.random())
            else:
                out[int(p)] = float(value_grid[int(rng.integers(0, len(value_grid)))])
        items.append(Item(i, out))
    return items


def rand_instance(rng: np.random.Generator, n: int, d: int, value_grid=None) -> Instance:
    return Instance(tuple(rand_items(rng, n, d, value_grid)))


TIE_GRID = (0.0, 0.25, 0.5, 0.5, 1.0)
# the extremes of a value's bits: both zeros, the least subnormal, 1 and a tie
SPECIAL_VALUES = (0.0, -0.0, 1.0, 5e-324, 1e-05, 0.1, 0.5, 0.5)


def reference_screen(entries, spec: ConstraintSpec, warmup: int) -> list[Item]:
    """The greedy rule without the gate or the pool: after the warmup, keep
    an arrival iff it is in optimal_matching(kept + [item])."""
    kept: list[Item] = []
    for pos, item in entries:
        if pos >= warmup and item.id in optimal_matching(kept + [item], spec).real_ids():
            kept.append(item)
    return kept


def reference_violations(items, spec: ConstraintSpec, positions: bool = False):
    """The item rules as a loop over Item objects, as they stood before the
    columnar validator; with ``positions`` also the stream rule that ids
    equal positions."""
    d = spec.d
    out = []
    seen = set()
    for item in items:
        i = item.id
        if i in seen:
            out.append(Violation("duplicate-id", i, f"id {i} appears more than once"))
        seen.add(i)
        if i >= DUMMY_ID_BASE:
            out.append(Violation("dummy-id", i, f"id {i} lies in the reserved dummy range"))
        if not item.props:
            out.append(Violation("empty-props", i, "item possesses no property"))
        for p, v in item.props.items():
            if type(p) is not int or not 0 <= p < d:
                out.append(Violation("unknown-property", i, f"property {p!r} outside 0..{d - 1}"))
            if type(v) is not float and (type(v) is bool or not isinstance(v, Real)):
                out.append(Violation("value-out-of-range", i, f"value {v!r} is not a number"))
            elif not 0.0 <= v <= 1.0:
                out.append(Violation("value-out-of-range", i, f"value {v!r} outside [0, 1]"))
    if positions:
        for pos, item in enumerate(items):
            if item.id != pos:
                out.append(
                    Violation("id-position-mismatch", item.id, f"id {item.id} at position {pos}")
                )
    return tuple(out)


BAD_PROPERTIES = (-1, 3, 10**9, 2**70, True, "0", 0.0)
BAD_VALUES = (
    float("nan"), float("inf"), -0.25, 1.5, 2, "0.5", None, False, np.float32(1.5),
    Fraction(10**20 + 1, 10**20),  # above 1, though it rounds to the float 1.0
)


def rand_bad_items(rng: np.random.Generator, n: int, d: int) -> list[Item]:
    """n items of which about a third break some item or stream rule."""
    items = []
    for pos in range(n):
        props = {p: float(rng.random()) for p in range(d) if rng.random() < 0.6}
        item_id = pos
        if rng.random() < 0.3:
            fault = int(rng.integers(0, 6))
            if fault == 0 and pos > 0:
                item_id = int(rng.integers(0, pos))  # duplicate and misplaced
            elif fault == 1:
                item_id = DUMMY_ID_BASE + pos
            elif fault == 2:
                props = {}
            elif fault == 3:
                props[BAD_PROPERTIES[int(rng.integers(0, len(BAD_PROPERTIES)))]] = 0.5
            else:
                p = int(rng.integers(0, d))
                props[p] = BAD_VALUES[int(rng.integers(0, len(BAD_VALUES)))]
        items.append(Item(item_id, props))
    return items


def reference_overlap_values(dist: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """The overlap-bernoulli sampler as a per-draw loop: the (n, d) value
    matrix of ``sample_instance(dist, n, seed)``, NaN where a property is
    not owned.  Each draw takes d coin uniforms, then one value uniform per
    owned property; a draw that owns none is rejected.  The uniforms come
    in a buffer that is doubled by ``rng.random(len(buffer))`` when the
    walk reaches its end."""
    q = np.asarray(dist.membership, dtype=float)
    d = dist.d
    rng = np.random.default_rng(seed)
    per_draw = (d + q.sum()) / (1.0 - np.prod(1.0 - q))
    uniforms = rng.random(int(n * per_draw * 1.1) + 4 * d)
    values = np.full((n, d), np.nan)
    at = row = 0
    while row < n:
        if at + d > len(uniforms):
            uniforms = np.concatenate((uniforms, rng.random(len(uniforms))))
            continue
        owned = uniforms[at : at + d] < q
        count = int(owned.sum())
        if at + d + count > len(uniforms):
            uniforms = np.concatenate((uniforms, rng.random(len(uniforms))))
            continue
        if count:
            values[row, owned] = uniforms[at + d : at + d + count]
            row += 1
        at += d + count
    return values


def _scaled_weights(
    ids: Sequence[int], rows: Sequence[Sequence[float]], spec: ConstraintSpec
) -> list[dict[int, int]]:
    """Exact integer edge weights folding all four tie-break layers.

    ``ids`` must be ascending (reals first, dummies last) and ``rows`` their
    value rows, NaN where an item lacks a property.  Index r in the pool is
    the item's rank; smaller ids get more significant digit positions in
    layers 3 and 4.
    """
    d = spec.d
    m = len(ids)
    ratios = [[(p, v.as_integer_ratio()) for p, v in enumerate(row) if v == v] for row in rows]
    # every float in [0, 1] is p / 2^e, so one common shift is lossless
    shift = max((q.bit_length() - 1 for pairs in ratios for _, (_, q) in pairs), default=0)
    bits = d.bit_length()
    layer4 = 1
    layer3 = 1 << (bits * m)
    layer2 = layer3 << m
    max_idsum = sum(i for i in ids if not is_dummy_id(i))
    layer1 = layer2 * (max_idsum + 1)

    weights: list[dict[int, int]] = [dict() for _ in range(m)]
    for rank, (item_id, pairs) in enumerate(zip(ids, ratios)):
        for p, (num, den) in pairs:
            scaled = num << (shift - (den.bit_length() - 1))
            w = scaled * layer1
            if not is_dummy_id(item_id):
                w += item_id * layer2
            w += (1 << (m - 1 - rank)) * layer3
            w += (d - p) * (layer4 << (bits * (m - 1 - rank)))
            weights[rank][p] = w
    return weights


def reference_assignment(
    ids: Sequence[int], rows: Sequence[Sequence[float]], spec: ConstraintSpec
) -> Solution:
    """The solver's assignment by the Hungarian method (Kuhn 1955) on the
    slot x item matrix, exact integer costs.

    ``ids`` are real items in ascending order and ``rows`` their value rows,
    NaN where an item lacks a property.  Rows of the matrix are the k slots
    (``caps[p]`` copies of property p), columns the items plus the dummies.
    A forbidden pair costs more than any k allowed pairs together, so the
    all-allowed assignment the dummies guarantee always beats one that
    uses it.
    """
    ids = [*ids, *range(DUMMY_ID_BASE, DUMMY_ID_BASE + spec.k)]
    rows = [*rows, *[[0.0] * spec.d] * spec.k]
    m = len(ids)
    weights = _scaled_weights(ids, rows, spec)
    forbidden = spec.k * max(w for ws in weights for w in ws.values()) + 1
    # 1-based columns; column 0 is where each row's augmenting path starts
    costs = [
        [0] + [-ws[p] if p in ws else forbidden for ws in weights] for p in range(spec.d)
    ]
    slots = [-1] + [p for p, cap in enumerate(spec.caps) for _ in range(cap)]
    u = [0] * len(slots)  # row and column potentials
    v = [0] * (m + 1)
    owner = [0] * (m + 1)  # row holding each column, 0 for none
    way = [0] * (m + 1)  # previous column on the shortest path to each column
    for i in range(1, len(slots)):
        owner[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        # grow shortest paths from row i until one reaches a free column
        while owner[j0]:
            used[j0] = True
            row, ui = costs[slots[owner[j0]]], u[owner[j0]]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        # augment: each column on the path takes the row of the column before it
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]

    chosen = [(j - 1, slots[owner[j]]) for j in range(1, m + 1) if owner[j]]
    if len(chosen) != spec.k:
        raise AssertionError(f"assignment filled {len(chosen)} of {spec.k} slots")
    return _finish((ids[j], p, rows[j][p]) for j, p in chosen)


def dummy_items(spec: ConstraintSpec) -> tuple[Item, ...]:
    """k dummies with reserved ids, possessing every property at value 0."""
    props = {p: 0.0 for p in range(spec.d)}
    return tuple(Item(DUMMY_ID_BASE + i, dict(props)) for i in range(spec.k))


def format_value(v: float) -> str:
    """Serialize a value with enough digits to round-trip bit-exactly."""
    text = format(float(v), ".17g")
    # JSON reads "-0" as the integer 0, which loses the sign
    return "-0.0" if text == "-0" else text


def near_midpoint_literals(rng: np.random.Generator, count: int) -> list[str]:
    """Literals of 17 to 20 significant digits, each within one unit of its
    last digit of a midpoint between two adjacent doubles: positional where
    the writer's form allows it, else with an exponent; a tenth of them
    around subnormal doubles (and zero), half the rest in [2^-10, 2)."""
    exps = np.where(rng.random(count) < 0.5, rng.integers(-10, 1, count), rng.integers(-60, 56, count))
    xs = np.ldexp(rng.random(count) + 0.5, exps)
    sub = rng.random(count) < 0.1
    xs[sub] = np.floor(np.exp2(rng.random(sub.sum()) * 52) - 1) * 5e-324
    out = []
    for x, s, nudge, positional in zip(
        xs.tolist(), rng.integers(17, 21, count).tolist(), rng.integers(-1, 2, count).tolist(),
        (rng.random(count) < 0.5).tolist(),
    ):
        # with x = M 2^E, the midpoint above x is (2M + 1) 2^(E - 1)
        e = max(math.frexp(x)[1] - 53, -1074) if x else -1074
        odd = 2 * int(math.ldexp(x, -e)) + 1
        digits = str(odd << (e - 1) if e > 0 else odd * 5 ** (1 - e))
        head = str(int(digits[:s]) + nudge)
        # the decimal point falls after `point` digits of head
        point = len(digits) + min(e - 1, 0) + len(head) - s
        if positional and 0 < point <= 17 and 0 < len(head) - point <= 20:
            out.append(head[:point] + "." + head[point:])
        elif positional and point <= 0 and len(head) - point <= 20:
            out.append("0." + "0" * -point + head)
        else:
            e10 = point - 1
            exp = "e-%02d" % -e10 if e10 < 0 else "e+%02d" % e10 if e10 else ""
            out.append(head[0] + "." + head[1:] + exp)
    return out


def reference_write(inst: Instance, fh) -> None:
    """The instance writer one f-string at a time: one per pair, one per
    record.  ``write_instance`` must write these bytes."""
    rows, props, vals, _ = inst.entries()
    order = np.lexsort((props, rows))
    pairs = [f"[{p}, {v:.17g}]" for p, v in zip(props[order].tolist(), vals[order].tolist())]
    lines = []
    at = 0
    for i, count in zip(inst.ids.tolist(), np.bincount(rows, minlength=inst.n).tolist()):
        lines.append(f'{{"id": {i}, "props": [{", ".join(pairs[at:at + count])}]}}\n')
        at += count
    fh.write("".join(lines).replace(", -0]", ", -0.0]"))


# Brute-force enumeration refuses anything bigger than this.
BRUTE_FORCE_MAX_ITEMS = 10
BRUTE_FORCE_MAX_SLOTS = 5


class OversizeError(RuntimeError):
    """Brute-force enumeration refused: instance exceeds the size guard."""


def _units(v) -> int:
    """The value ``v`` as an exact count of 2^-1074, the spacing of the
    subnormal doubles, of which every double in [0, 1] is a multiple."""
    count = Fraction(v) * 2**1074
    if count.denominator != 1:
        raise ValueError(f"value {v!r} is not a multiple of 2^-1074")
    return count.numerator


def brute_force_matching(items: Sequence[Item], spec: ConstraintSpec) -> Solution:
    """Enumerate every feasible assignment and return the best under the
    same four-layer order as ``optimal_matching``: the largest value sum,
    then the largest real id sum, then the smallest sorted ids, then the
    smallest sorted (id, property) pairs.  Exact integer arithmetic
    throughout, value and id sums carried down the enumeration; refuses
    instances beyond the size guard.
    """
    items = list(items)
    if len(items) > BRUTE_FORCE_MAX_ITEMS or spec.k > BRUTE_FORCE_MAX_SLOTS:
        raise OversizeError(
            f"brute force limited to {BRUTE_FORCE_MAX_ITEMS} items and "
            f"{BRUTE_FORCE_MAX_SLOTS} slots, got {len(items)} items, {spec.k} slots"
        )
    require_valid(validate_items(items, spec), "items")
    pool = sorted(items, key=lambda it: it.id) + list(dummy_items(spec))
    ids = [item.id for item in pool]
    # dummies add nothing to the value and id sums
    real_ids = [0 if is_dummy_id(i) else i for i in ids]
    units = [
        {p: 0 if is_dummy_id(item.id) else _units(v) for p, v in item.props.items()}
        for item in pool
    ]
    eligible = [
        [idx for idx, item in enumerate(pool) if p in item.props] for p in range(spec.d)
    ]

    best_key = None

    def recurse(p: int, used: set[int], acc: list[tuple[int, int]], value: int, idsum: int) -> None:
        nonlocal best_key
        if p == spec.d:
            # the sorted ids and pairs are built only where the sums do not decide
            if best_key is None or (-value, -idsum) <= best_key[:2]:
                chosen = sorted(acc)
                key = (-value, -idsum, tuple(i for i, _ in chosen), tuple(chosen))
                if best_key is None or key < best_key:
                    best_key = key
            return
        free = [idx for idx in eligible[p] if idx not in used]
        for combo in itertools.combinations(free, spec.caps[p]):
            used.update(combo)
            acc.extend((ids[idx], p) for idx in combo)
            recurse(
                p + 1,
                used,
                acc,
                value + sum(units[idx][p] for idx in combo),
                idsum + sum(real_ids[idx] for idx in combo),
            )
            used.difference_update(combo)
            del acc[len(acc) - len(combo) :]

    recurse(0, set(), [], 0, 0)
    assert best_key is not None
    props = {item.id: item.props for item in pool}
    return _finish((i, p, props[i][p]) for i, p in best_key[3])
