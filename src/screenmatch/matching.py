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
matrix, and solves on the pool's value rows: no ``Item`` is built.  When
every pooled item possesses a single property, the properties do not
compete and the optimum is the top ``caps[p]`` of each property, with the
lowest dummies filling shortfalls from the lowest property up.

Otherwise the pool is inserted one item at a time, in id order, with the
augmenting-path step the overlap greedy uses (``_path_step``; successive
shortest paths, Edmonds and Karp 1972), and the shortfalls are filled as
above.  Each step keeps the optimum over the items so far under one exact
integer weight per (item, property) pair that folds the layers in:

- layers 1-2: ``_weights``, value * 2^1074 * B + (id + 1), shifted up by
  bits * m for m pool items and bits = d.bit_length().  Every double in
  [0, 1] is a multiple of 2^-1074, and B exceeds the id terms of k + 1
  items, so the value decides first and the ids after;
- layer 3 needs no term: the sets one step compares differ by one item
  in and one out, so their sums of id + 1 differ;
- layer 4: d - p in the bits-wide digit m - 1 - rank, so smaller ids sit
  in more significant digits and prefer smaller properties.

No floating-point comparison ever decides a tie.  ``optimal_matching``
turns ``Item`` objects into an ``Instance`` once, at entry.  The tests
hold the solver to an oracle, kept in ``tests/helpers.py``, that
re-derives the same optimum by enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DUMMY_ID_BASE, ConstraintSpec, Instance, Item, is_dummy_id, require_valid, validate_items,
)

__all__ = [
    "Solution",
    "optimal_matching",
    "exact_solution_value",
]


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


def _fill(held: Sequence[Sequence[tuple[int, float]]], caps: tuple[int, ...]) -> Solution:
    """The solution with ``held[p]``'s (id, value) pairs at each property p
    and the lowest dummies filling shortfalls from the lowest property up."""
    chosen = [(i, p, v) for p, pairs in enumerate(held) for i, v in pairs]
    shortfall = [p for p, pairs in enumerate(held) for _ in range(caps[p] - len(pairs))]
    chosen += [(DUMMY_ID_BASE + j, p, 0.0) for j, p in enumerate(shortfall)]
    return _finish(chosen)


def _weights(item_id: int, row: list[float], shift: int) -> list[int | None]:
    """The exact weight W(y, p) = value * 2^1074 * B + (id + 1) of the (id,
    row) item y at each property p, None where y lacks p; ``shift`` is
    1074 + log2 B.  Every double in [0, 1] is a multiple of 2^-1074, so the
    first term is an integer."""
    out: list[int | None] = []
    for v in row:
        if v == v:
            num, den = v.as_integer_ratio()
            out.append((num << (shift - den.bit_length() + 1)) + item_id + 1)
        else:
            out.append(None)
    return out


def _path_step(held: list[list[tuple]], arrival: tuple, caps: tuple[int, ...]) -> bool:
    """Decide the (id, row, weights) ``arrival`` against the optimum M.

    ``held[p]`` holds M's real (id, row, weights) items at property p; the
    free slots hold dummies of weight 0.  One Bellman-Ford pass over the d
    property nodes finds the best alternating path from the arrival: it
    enters p at W(x, p), the item of p that gains most moves on to q, and
    the path ends where the cheapest item of p (a dummy if any) leaves.
    The arrival is kept exactly when that path gains, and the path is then
    applied to ``held`` in place.
    """
    d = len(caps)
    move: list[list] = [[None] * d for _ in range(d)]  # p -> q: (gain, item)
    drop: list[tuple] = []  # p: (gain, item), a dummy's None
    for p, ys in enumerate(held):
        out = (0, None) if len(ys) < caps[p] else None
        for y in ys:
            w = y[2]
            if out is None or -w[p] > out[0]:
                out = (-w[p], y)
            for q, wq in enumerate(w):
                if wq is not None and q != p and (move[p][q] is None or wq - w[p] > move[p][q][0]):
                    move[p][q] = (wq - w[p], y)
        drop.append(out)
    dist = list(arrival[2])
    pred: list[int | None] = [None] * d
    for _ in range(d - 1):
        changed = False
        for p, at in enumerate(dist):
            if at is None:
                continue
            for q, edge in enumerate(move[p]):
                if edge is not None and (dist[q] is None or at + edge[0] > dist[q]):
                    dist[q], pred[q], changed = at + edge[0], p, True
        if not changed:
            break
    gain, end = max((at + drop[p][0], p) for p, at in enumerate(dist) if at is not None)
    if gain <= 0:
        return False
    if drop[end][1] is not None:
        held[end].remove(drop[end][1])
    p = end
    while pred[p] is not None:
        y = move[pred[p]][p][1]
        held[pred[p]].remove(y)
        held[p].append(y)
        p = pred[p]
    held[p].append(arrival)
    return True


def _solve_assignment(
    ids: Sequence[int], rows: Sequence[Sequence[float]], spec: ConstraintSpec
) -> Solution:
    """The optimum over the real items ``ids`` (ascending) and their value
    rows (NaN where an item lacks a property), inserted in id order."""
    d, m = spec.d, len(ids)
    bits = d.bit_length()
    # B = 2^(shift - 1074) exceeds the id terms of k + 1 items
    shift = 1074 + ((spec.k + 1) * (max(ids, default=0) + 2)).bit_length()
    held: list[list[tuple]] = [[] for _ in range(d)]
    for rank, (item_id, row) in enumerate(zip(ids, rows)):
        low = bits * (m - 1 - rank)
        weights = [
            None if w is None else (w << bits * m) + ((d - p) << low)
            for p, w in enumerate(_weights(item_id, row, shift))
        ]
        _path_step(held, (item_id, row, weights), spec.caps)
    return _fill([[(y[0], y[1][p]) for y in ys] for p, ys in enumerate(held)], spec.caps)


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
    tops = [
        sorted(((row[p], i) for i, row in zip(ids, rows) if row[p] == row[p]), reverse=True)[:cap]
        for p, cap in enumerate(spec.caps)
    ]
    return _fill([[(i, v) for v, i in top] for top in tops], spec.caps)


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
