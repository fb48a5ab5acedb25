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

Otherwise the pool is inserted one item at a time, by falling weight,
with the augmenting-path step the overlap greedy uses (``_path_step``;
successive shortest paths with node potentials, Tomizawa 1971, Edmonds
and Karp 1972), and the shortfalls are filled as above.  The optimum so
far, a ``Held``, carries the gain of the best path entering each
property, so an item that does not enter costs one comparison per
property, and inserting the heaviest items first leaves most of the
later ones out.  Each step keeps the optimum over the items so far under
one exact integer weight per (item, property) pair that folds the layers
in:

- layers 1-2: ``_weights``, value * 2^1074 * B + (id + 1), shifted up by
  bits * m for m pool items and bits = d.bit_length().  Every double in
  [0, 1] is a multiple of 2^-1074, and B exceeds the id terms of k + 1
  items, so the value decides first and the ids after;
- layer 3 needs no term: the sets one step compares differ by one item
  in and one out, so their sums of id + 1 differ;
- layer 4: d - p in the bits-wide digit m - 1 - rank, for the item's
  rank by id, so smaller ids sit in more significant digits and prefer
  smaller properties.  No two assignments weigh the same, so the optimum
  does not depend on the order in which the pool is inserted.

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


class Held(list):
    """The optimum M per property, with its path potentials.

    ``self[p]`` lists M's real (id, row, weights) items at p; free slots hold
    dummies of weight 0.  ``move[p][q]`` is the (gain, item) of the item of p
    that gains most by moving on to q, and ``drop[p]`` that of the cheapest
    item of p to leave, a dummy's None: both depend on ``self[p]`` alone.
    ``reach[p]`` is the gain of the best path that enters p and ends with a
    drop, and ``nxt[p]`` where it moves on to, None where it drops at p.
    """

    def __init__(self, d: int):
        super().__init__([] for _ in range(d))
        self.move: list[list] = [[None] * d for _ in range(d)]
        self.drop: list[tuple] = [(0, None)] * d
        self.reach: list[int] = [0] * d
        self.nxt: list[int | None] = [None] * d


def _path_step(held: Held, arrival: tuple, caps: tuple[int, ...]) -> bool:
    """Decide the (id, row, weights) ``arrival`` x against the optimum M.

    The best alternating path from x enters a property p that x owns, at
    W(x, p) + ``held.reach[p]``: the item x displaces moves on along
    ``held.nxt``, and the path ends where an item (a dummy if any) leaves.
    x is kept exactly when that path gains, decided in O(d).  A kept x's
    path is applied to ``held`` in place; the tables of the properties on
    it and the potentials are rebuilt.
    """
    gain, p = max((w + held.reach[p], p) for p, w in enumerate(arrival[2]) if w is not None)
    if gain <= 0:
        return False
    y = arrival
    while True:
        q = held.nxt[p]
        out = held.drop[p][1] if q is None else held.move[p][q][1]
        ys = held[p]
        if out is not None:
            ys.remove(out)
        ys.append(y)
        # p's tables depend on held[p] alone; the path does not come back to p
        row: list = [None] * len(caps)
        drop = (0, None) if len(ys) < caps[p] else None
        for z in ys:
            w = z[2]
            if drop is None or -w[p] > drop[0]:
                drop = (-w[p], z)
            for r, wr in enumerate(w):
                if wr is not None and r != p and (row[r] is None or wr - w[p] > row[r][0]):
                    row[r] = (wr - w[p], z)
        held.move[p], held.drop[p] = row, drop
        if q is None:
            break
        p, y = q, out
    # the potentials, by one backward Bellman-Ford pass over the d nodes: M
    # has the greatest weight over its items, so no cycle gains
    reach, nxt = [g for g, _ in held.drop], [None] * len(caps)
    for _ in range(len(caps) - 1):
        changed = False
        for p, row in enumerate(held.move):
            for q, edge in enumerate(row):
                if edge is not None and edge[0] + reach[q] > reach[p]:
                    reach[p], nxt[p], changed = edge[0] + reach[q], q, True
        if not changed:
            break
    held.reach, held.nxt = reach, nxt
    return True


def _solve_assignment(
    ids: Sequence[int], rows: Sequence[Sequence[float]], spec: ConstraintSpec
) -> Solution:
    """The optimum over the real items ``ids`` (ascending) and their value
    rows (NaN where an item lacks a property).  The weights rank the items
    by id; they are inserted by falling greatest weight, so that the
    optimum fills early and most later items fail its potentials in O(d).
    The unique optimum does not depend on the order of insertion."""
    d, m = spec.d, len(ids)
    bits = d.bit_length()
    # B = 2^(shift - 1074) exceeds the id terms of k + 1 items
    shift = 1074 + ((spec.k + 1) * (max(ids, default=0) + 2)).bit_length()
    pool = []
    for rank, (item_id, row) in enumerate(zip(ids, rows)):
        low = bits * (m - 1 - rank)
        weights = [
            None if w is None else (w << bits * m) + ((d - p) << low)
            for p, w in enumerate(_weights(item_id, row, shift))
        ]
        pool.append((item_id, row, weights))
    held = Held(d)
    for arrival in sorted(pool, key=lambda y: max(w for w in y[2] if w is not None), reverse=True):
        _path_step(held, arrival, spec.caps)
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
    k, n = spec.k, inst.n
    values = inst.columns(spec.d)
    # the pool: rows in the top k of some property by (value, id).  A row
    # lacking p reads -1 in its column, below every value, so the k-th
    # largest entry is the k-th owner's value, or -1 when there are fewer
    pooled = np.zeros(n, dtype=bool)
    for col in np.fmax(values.T, -1.0, order="C"):
        floor = max(np.partition(col, n - k)[n - k], 0.0) if n > k else 0.0
        owners = np.flatnonzero(col >= floor)
        if owners.size > k:  # a tie at the k-th value
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
