"""Exact offline assignment: maximum-value saturated matching with total tie order.

The solver fills every slot of the constraint spec with a distinct item
(dummies included, so the problem is always feasible) and maximizes, in
strict priority order:

1. total value of assigned real items,
2. sum of assigned real-item ids (so later arrivals win value ties),
3. the sorted multiset of assigned ids, lexicographically smallest
   (dummy ids sit at the top of the id space, so real items are preferred
   and low ids are pulled in first),
4. among identical multisets, the assignment sending the smallest
   differing id to the smallest property index.

This order is total: the optimum is unique, so the result is deterministic
and independent of input order.

Pool lemma: with k slots in all, an item outside the top k of every
property it possesses, ranked by (value, id), is never in the optimum.
Among the k items above it in the property it would fill, at most k - 1
are assigned, so a free one can take its slot and wins under layers 1-2.
The solver therefore works on the pool of per-property top-k items only.
It selects that pool once, in numpy, as rows of the instance's value
matrix, and solves on the pool's value rows: no ``Item`` is built.  When every pooled item possesses a single property, the
properties do not compete and the optimum is the top ``caps[p]`` of each
property, with the lowest dummies filling shortfalls from the lowest
property up.  Otherwise
all four layers are folded into one exact integer weight per (item,
property) pair (values are scaled by a power of two, which is lossless for
binary floats), and the Hungarian method on the slot x pool matrix finds
the argmax.  No floating-point comparison ever decides a tie.

``optimal_matching`` turns ``Item`` objects into an ``Instance`` once, at
entry.  ``brute_force_matching`` stays on ``Item`` objects: it re-derives
the same optimum by enumeration and is the oracle the solver is tested
against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DUMMY_ID_BASE, ConstraintSpec, Instance, Item, dummy_items, is_dummy_id, require_valid,
    validate_items,
)

__all__ = [
    "Solution",
    "OversizeError",
    "optimal_matching",
    "brute_force_matching",
    "exact_solution_value",
]

# Brute-force enumeration refuses anything bigger than this.
BRUTE_FORCE_MAX_ITEMS = 10
BRUTE_FORCE_MAX_SLOTS = 5


class OversizeError(RuntimeError):
    """Brute-force enumeration refused: instance exceeds the size guard."""


@dataclass(frozen=True, slots=True)
class Solution:
    """A feasible assignment: exactly k (item id, property) pairs, id-sorted.

    ``value`` is the exactly-rounded float sum of the assigned real items'
    values; dummy entries contribute nothing.
    """

    assignment: tuple[tuple[int, int], ...]
    value: float

    def per_property(self) -> dict[int, tuple[int, ...]]:
        """Property index -> id-sorted tuple of assigned items (dummies included)."""
        out: dict[int, list[int]] = {}
        for item_id, prop in self.assignment:
            out.setdefault(prop, []).append(item_id)
        return {p: tuple(sorted(ids)) for p, ids in sorted(out.items())}

    def real_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.assignment if not is_dummy_id(i))

    def to_json_obj(self) -> dict:
        return {"value": self.value, "assignment": [list(pair) for pair in self.assignment]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Solution":
        return Solution(
            tuple((int(i), int(p)) for i, p in obj["assignment"]),
            float(obj["value"]),
        )


def _finish(chosen: Iterable[tuple[int, int, float]]) -> Solution:
    """The solution of (item id, property, value) triples."""
    chosen = list(chosen)
    pairs = sorted((i, p) for i, p, _ in chosen)
    value = math.fsum(v for i, _, v in chosen if not is_dummy_id(i))
    return Solution(tuple(pairs), value)


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


def _solve_assignment(
    ids: Sequence[int], rows: Sequence[Sequence[float]], spec: ConstraintSpec
) -> Solution:
    """Hungarian method (Kuhn 1955) on the slot x item matrix, exact integer costs.

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


def optimal_matching(items: Sequence[Item] | Instance, spec: ConstraintSpec) -> Solution:
    """The unique optimal saturated assignment of real items plus dummies.

    ``items`` are the real candidates, as ``Item`` objects (any order; the
    result depends only on the set) or an ``Instance``.  ``Item`` objects
    become an ``Instance`` here, once.  The instance is checked with
    ``validate_items``: duplicate or dummy-range ids, an item with no
    property, a property outside the spec or a value outside [0, 1] raise
    ``InputError``.
    """
    inst = items if isinstance(items, Instance) else Instance(items)
    require_valid(validate_items(inst, spec), "items")
    return _solve(inst, spec)


def _solve(inst: Instance, spec: ConstraintSpec) -> Solution:
    """``optimal_matching`` without the item check, for an instance an entry
    point has already checked."""
    k = spec.k
    values = inst.columns(spec.d)
    # the pool: rows in the top k of some property by (value, id)
    pooled = np.zeros(inst.n, dtype=bool)
    for col in values.T:
        owners = np.flatnonzero(col == col)
        if owners.size > k:
            owned = col[owners]
            cut = owners.size - k
            owners = owners[owned >= np.partition(owned, cut)[cut]]
            owners = owners[np.lexsort((inst.ids[owners], col[owners]))[-k:]]
        pooled[owners] = True
    pool = np.flatnonzero(pooled)
    pool = pool[np.argsort(inst.ids[pool])]  # the assignment ranks its items by id
    block = values[pool]
    ids, rows = inst.ids[pool].tolist(), block.tolist()
    # a checked row owns some property, so some row owns two when the entries outnumber the rows
    if np.count_nonzero(block == block) > len(rows):
        return _solve_assignment(ids, rows, spec)
    chosen: list[tuple[int, int, float]] = []
    shortfall: list[int] = []
    for p, cap in enumerate(spec.caps):
        candidates = [(row[p], i) for i, row in zip(ids, rows) if row[p] == row[p]]
        top = sorted(candidates, reverse=True)[:cap]
        chosen += [(i, p, v) for v, i in top]
        shortfall += [p] * (cap - len(top))
    # the lowest dummies go to the lowest properties
    chosen += [(DUMMY_ID_BASE + j, p, 0.0) for j, p in enumerate(shortfall)]
    return _finish(chosen)


def _enumeration_key(chosen: list[tuple[Item, int]]):
    value = Fraction(0)
    idsum = 0
    for item, prop in chosen:
        if not is_dummy_id(item.id):
            value += Fraction(item.props[prop])
            idsum += item.id
    ids = tuple(sorted(item.id for item, _ in chosen))
    pairs = tuple(sorted((item.id, prop) for item, prop in chosen))
    return (-value, -idsum, ids, pairs)


def brute_force_matching(items: Sequence[Item], spec: ConstraintSpec) -> Solution:
    """Enumerate every feasible assignment and return the best under the
    same four-layer order as ``optimal_matching``.  Exact rational
    arithmetic throughout; refuses instances beyond the size guard.
    """
    items = list(items)
    if len(items) > BRUTE_FORCE_MAX_ITEMS or spec.k > BRUTE_FORCE_MAX_SLOTS:
        raise OversizeError(
            f"brute force limited to {BRUTE_FORCE_MAX_ITEMS} items and "
            f"{BRUTE_FORCE_MAX_SLOTS} slots, got {len(items)} items, {spec.k} slots"
        )
    require_valid(validate_items(items, spec), "items")
    pool = sorted(items, key=lambda it: it.id) + list(dummy_items(spec))
    eligible = [
        [idx for idx, item in enumerate(pool) if p in item.props] for p in range(spec.d)
    ]

    best_key = None
    best: list[tuple[Item, int]] | None = None

    def recurse(p: int, used: set[int], acc: list[tuple[Item, int]]) -> None:
        nonlocal best_key, best
        if p == spec.d:
            key = _enumeration_key(acc)
            if best_key is None or key < best_key:
                best_key = key
                best = list(acc)
            return
        free = [idx for idx in eligible[p] if idx not in used]
        for combo in itertools.combinations(free, spec.caps[p]):
            for idx in combo:
                used.add(idx)
                acc.append((pool[idx], p))
            recurse(p + 1, used, acc)
            for idx in combo:
                used.remove(idx)
                acc.pop()

    recurse(0, set(), [])
    assert best is not None
    return _finish((item.id, p, item.props[p]) for item, p in best)


def exact_solution_value(items: Sequence[Item] | Instance, solution: Solution) -> Fraction:
    """Recompute a solution's value in exact rational arithmetic."""
    inst = items if isinstance(items, Instance) else Instance(items)
    pairs = [(i, p) for i, p in solution.assignment if not is_dummy_id(i)]
    return sum(map(Fraction, inst.values_at(pairs)), Fraction(0))


def _reaches_optimum(items: Sequence[Item] | Instance, final: Solution, full: Solution) -> bool:
    """True when ``final`` is worth exactly as much as the optimum ``full``
    over ``items``; identical solutions skip the exact values."""
    return final == full or exact_solution_value(items, final) == exact_solution_value(
        items, full
    )
