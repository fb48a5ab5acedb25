"""Random instance builders and reference rules shared by the test modules."""

from fractions import Fraction
from numbers import Real

import numpy as np

from screenmatch import ConstraintSpec, Instance, Item, Violation, optimal_matching
from screenmatch.core import DUMMY_ID_BASE


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
