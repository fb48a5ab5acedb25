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
When every pooled item possesses a single property, the properties do not
compete and the optimum is the top ``caps[p]`` of each property, with the
lowest dummies filling shortfalls from the lowest property up.  Otherwise
all four layers are folded into one exact integer weight per edge (values
are scaled by a power of two, which is lossless for binary floats), and a
successive-shortest-path min-cost flow over the pool finds the argmax.  No
floating-point comparison ever decides a tie.

``brute_force_matching`` re-derives the same optimum by enumeration and is
the oracle the solver is tested against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import ConstraintSpec, Item, dummy_items, is_dummy_id, require_valid, validate_items

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


def _finish(chosen: Iterable[tuple[Item, int]]) -> Solution:
    pairs = sorted((item.id, prop) for item, prop in chosen)
    value = math.fsum(
        item.props[prop] for item, prop in chosen if not is_dummy_id(item.id)
    )
    return Solution(tuple(pairs), value)


def _scaled_weights(pool: Sequence[Item], spec: ConstraintSpec) -> list[dict[int, int]]:
    """Exact integer edge weights folding all four tie-break layers.

    ``pool`` must be id-sorted (reals first, dummies last).  Index r in the
    pool is the item's rank; smaller ids get more significant digit
    positions in layers 3 and 4.
    """
    d = spec.d
    m = len(pool)
    ratios = [
        (item, p, v.as_integer_ratio())
        for item in pool
        for p, v in sorted(item.props.items())
    ]
    # every float in [0, 1] is p / 2^e, so one common shift is lossless
    shift = max((q.bit_length() - 1 for _, _, (_, q) in ratios), default=0)
    bits = d.bit_length()
    layer4 = 1
    layer3 = 1 << (bits * m)
    layer2 = layer3 << m
    max_idsum = sum(item.id for item in pool if not is_dummy_id(item.id))
    layer1 = layer2 * (max_idsum + 1)

    weights: list[dict[int, int]] = [dict() for _ in range(m)]
    for rank, item in enumerate(pool):
        for p, v in item.props.items():
            num, den = v.as_integer_ratio()
            scaled = num << (shift - (den.bit_length() - 1))
            w = scaled * layer1
            if not is_dummy_id(item.id):
                w += item.id * layer2
            w += (1 << (m - 1 - rank)) * layer3
            w += (d - p) * (layer4 << (bits * (m - 1 - rank)))
            weights[rank][p] = w
    return weights


def _solve_flow(items: Sequence[Item], spec: ConstraintSpec) -> Solution:
    """Min-cost flow (successive shortest paths, exact integer costs)."""
    d, caps, k = spec.d, spec.caps, spec.k
    pool = sorted(items, key=lambda it: it.id) + list(dummy_items(spec))
    m = len(pool)
    weights = _scaled_weights(pool, spec)

    # nodes: 0..d-1 properties, d..d+m-1 items, then source and sink
    src = d + m
    snk = d + m + 1
    n_nodes = d + m + 2
    graph: list[list[int]] = [[] for _ in range(n_nodes)]
    edge_to: list[int] = []
    edge_cap: list[int] = []
    edge_cost: list[int] = []

    def add_edge(u: int, v: int, cap: int, cost: int) -> None:
        graph[u].append(len(edge_to))
        edge_to.append(v)
        edge_cap.append(cap)
        edge_cost.append(cost)
        graph[v].append(len(edge_to))
        edge_to.append(u)
        edge_cap.append(0)
        edge_cost.append(-cost)

    for p in range(d):
        add_edge(src, p, caps[p], 0)
    for rank in range(m):
        add_edge(d + rank, snk, 1, 0)
    for rank in range(m):
        for p, w in sorted(weights[rank].items()):
            add_edge(p, d + rank, 1, -w)

    # initial potentials = DAG shortest distances from the source
    pot = [0] * n_nodes
    for rank in range(m):
        pot[d + rank] = min(-w for w in weights[rank].values())
    pot[snk] = min(pot[d + rank] for rank in range(m))

    for _ in range(k):
        dist: list[int | None] = [None] * n_nodes
        prev_edge = [-1] * n_nodes
        dist[src] = 0
        heap: list[tuple[int, int]] = [(0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if dist[u] is not None and du > dist[u]:
                continue
            for eid in graph[u]:
                if edge_cap[eid] <= 0:
                    continue
                v = edge_to[eid]
                nd = du + edge_cost[eid] + pot[u] - pot[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev_edge[v] = eid
                    heapq.heappush(heap, (nd, v))
        if dist[snk] is None:
            raise AssertionError("saturation unreachable despite dummy items")
        for v in range(n_nodes):
            if dist[v] is not None:
                pot[v] += dist[v]
        v = snk
        while v != src:
            eid = prev_edge[v]
            edge_cap[eid] -= 1
            edge_cap[eid ^ 1] += 1
            v = edge_to[eid ^ 1]

    chosen: list[tuple[Item, int]] = []
    for p in range(d):
        for eid in graph[p]:
            if eid % 2 == 0 and edge_to[eid] >= d and edge_to[eid] < d + m and edge_cap[eid] == 0:
                chosen.append((pool[edge_to[eid] - d], p))
    if len(chosen) != k:
        raise AssertionError(f"flow filled {len(chosen)} of {k} slots")
    return _finish(chosen)


def optimal_matching(items: Sequence[Item], spec: ConstraintSpec) -> Solution:
    """The unique optimal saturated assignment of real items plus dummies.

    ``items`` are the real candidates (any order; the result depends only
    on the set).  They are checked with ``validate_items``: duplicate or
    dummy-range ids, an item with no property, a property outside the spec
    or a value outside [0, 1] raise ``InputError``.
    """
    require_valid(validate_items(items, spec), "items")
    return _solve(items, spec)


def _solve(items: Sequence[Item], spec: ConstraintSpec) -> Solution:
    """``optimal_matching`` without the item check, for items an entry point
    has already checked."""
    k = spec.k
    tops = [
        heapq.nlargest(
            k, [it for it in items if p in it.props], key=lambda it, p=p: (it.props[p], it.id)
        )
        for p in range(spec.d)
    ]
    pool = list({it.id: it for top in tops for it in top}.values())
    if any(len(it.props) > 1 for it in pool):
        return _solve_flow(pool, spec)
    chosen: list[tuple[Item, int]] = []
    shortfall: list[int] = []
    for p, (cap, top) in enumerate(zip(spec.caps, tops)):
        chosen += [(it, p) for it in top[:cap]]
        shortfall += [p] * (cap - len(top))
    if shortfall:
        # the lowest dummies go to the lowest properties
        chosen += zip(dummy_items(spec), shortfall)
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
    return _finish(best)


def exact_solution_value(items: Sequence[Item], solution: Solution) -> Fraction:
    """Recompute a solution's value in exact rational arithmetic."""
    by_id = {item.id: item for item in items}
    total = Fraction(0)
    for item_id, prop in solution.assignment:
        if not is_dummy_id(item_id):
            total += Fraction(by_id[item_id].props[prop])
    return total
