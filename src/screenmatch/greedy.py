"""Online greedy screening: skip a warmup prefix, then keep an item exactly
when it participates in the current optimum over the items kept so far.

Because the offline solver's tie order is total and consistent across
prefixes, deciding against the kept-items-plus-newcomer set is equivalent
to deciding against the full prefix; the test suite checks this prefix
consistency explicitly on small instances.

The pass keeps, per property, a min-heap of the top k (value, id) pairs
among kept items.  By the solver's pool lemma, an arrival that ranks
below the k-th best kept item in every property it possesses is outside
the optimum, so it is rejected without a solve.  Any other arrival x is
decided against the current optimum M over the kept items:

- Exchange lemma: the optimum over the kept items plus x uses only M's
  items and x.  The four tie layers fold into one additive weight whose
  optimum is unique, so an alternating component of M and the new optimum
  that misses x would improve one of the two on its own.  M is held as
  (id, value row) pairs, and M's real items plus x, at most k + 1 rows,
  go straight to the solver's assignment routine with no pool selection:
  by the pool lemma, pruning never changes the optimum.  A rejected
  arrival leaves M as it was.
- Value bound: when M holds k real items, x and any k - 1 of them are worth
  at most x's best value plus the best values of M's items less the lowest
  of those.  When that falls short of M's value, x is rejected with no
  solve.  The sum is an exactly signed ``math.fsum``.

When every arrival owns a single property (d = 1, and disjoint streams)
the properties do not compete: the optimum is the top ``caps[p]`` of
each property, the solver's own single-property rule.  Heap p then holds
``caps[p]`` pairs, and the gate is the whole decision: an arrival that
passes it is kept, with no solve.

No ``Item`` is built: the pass returns the indices of the kept arrivals.
Arrivals come as value rows and are gated a block at a time: numpy drops
every arrival of the block whose values all lie below the minima of full
heaps at the block's start.  The minima only rise within a block, so the
arrivals this drops are ones the exact gate would reject too, and only
the rest reach it one by one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
import numpy as np

from .core import (
    ConfigError, ConstraintSpec, InputError, Instance, require_valid, validate_instance
)
from .matching import Solution, _solve_assignment, optimal_matching

__all__ = ["TraceStep", "GreedyResult", "Arrivals", "warmup_length", "greedy_screen"]

# arrivals gated together in numpy before the exact gate
BLOCK = 256


@dataclass(frozen=True, slots=True)
class TraceStep:
    step: int
    item_id: int
    retained: bool
    running_value: float


@dataclass(frozen=True, slots=True)
class GreedyResult:
    """Kept ids in arrival order plus the final optimum over the kept items."""

    retained_ids: tuple[int, ...]
    final_solution: Solution
    trace: tuple[TraceStep, ...] | None = None


def warmup_length(n: int, k: int, delta: float) -> int:
    """floor(delta * n / k), evaluated in exact rational arithmetic.

    The float ``delta`` is taken at its exact binary value, so the floor
    never drifts across an integer boundary through rounding.
    """
    if not isinstance(n, int) or n < 0:
        raise ConfigError(f"n must be a nonnegative integer, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise ConfigError(f"k must be a positive integer, got {k!r}")
    if not (0.0 <= delta <= 1.0) or delta != delta:
        raise ConfigError(f"delta must lie in [0, 1], got {delta!r}")
    num, den = float(delta).as_integer_ratio()
    return (num * n) // (den * k)


@dataclass(frozen=True, slots=True, eq=False)
class Arrivals:
    """Arrivals for ``screen_entries``: the original stream positions, which
    are also the item ids, and the matching rows of an (m, d) value matrix.
    Iterating gives (position, row) pairs."""

    pos: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.pos)

    def __iter__(self):
        return zip(self.pos.tolist(), self.values)


def _value_bound(optimum: list[tuple[int, list[float]]], assigned: dict[int, int]) -> list[float]:
    """The terms of ``_outvalued`` for an optimum of k real (id, row) pairs,
    assigned as ``assigned`` says: each item's best value, the lowest of
    those negated, and each item's assigned value negated."""
    best = [max(v for v in row if v == v) for _, row in optimum]
    return [-min(best), *best, *(-row[assigned[i]] for i, row in optimum)]


def _outvalued(arrival: tuple[int, list[float]], bound: list[float]) -> bool:
    """True when the (id, row) ``arrival`` and any k - 1 items of the
    optimum, each at its best value, are worth less than the optimum: no
    set holding the arrival can beat it.  The exact sum of doubles is a
    multiple of 2^-1074, and fsum rounds it correctly, so the sign is
    exact."""
    return math.fsum([max(v for v in arrival[1] if v == v), *bound]) < 0


def screen_entries(
    entries: Arrivals,
    spec: ConstraintSpec,
    warmup: int,
    trace: bool = False,
) -> tuple[list[int], list[TraceStep] | None]:
    """Greedy pass over ``Arrivals``; an arrival's id is its position.

    Returns the indices into ``entries`` of the kept arrivals, in arrival
    order.  Positions are compared against ``warmup``, so a filtered
    subsequence keeps its original stream geometry.  Used by both
    ``greedy_screen`` and the combined pipeline, which have checked the
    items, so the solves here skip the check.  A step's ``running_value``
    is the optimum value over the items kept so far.
    """
    positions, values = entries.pos, entries.values
    # a checked arrival owns some property, so each owns one when the owned entries add up to m
    single = np.count_nonzero(values == values) == len(values)
    sizes = spec.caps if single else (spec.k,) * spec.d
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(spec.d)]
    kept: list[int] = []
    # overlap streams: the optimum's real (id, row) pairs in id order, and
    # the value bound's terms once it holds k
    optimum: list[tuple[int, list[float]]] = []
    bound: list[float] = []
    decided: dict[int, tuple[bool, float]] = {}  # index -> (retained, running) per solve
    running = 0.0
    after_warmup = positions >= warmup
    for start in range(0, len(entries), BLOCK):
        block, pos = values[start : start + BLOCK], positions[start : start + BLOCK]
        # a value below a full heap's minimum fails the exact gate below
        lows = np.array(
            [heap[0][0] if len(heap) == size else -np.inf for heap, size in zip(heaps, sizes)]
        )
        survivors = np.flatnonzero(
            (block >= lows).any(axis=1) & after_warmup[start : start + BLOCK]
        )
        if not survivors.size:
            continue
        for i, item_id, row in zip(
            (survivors + start).tolist(), pos[survivors].tolist(), block[survivors].tolist()
        ):
            owned = [(p, v) for p, v in enumerate(row) if v == v]
            if not any(
                len(heaps[p]) < sizes[p] or (v, item_id) > heaps[p][0] for p, v in owned
            ):
                continue
            if not single:
                # a rejected arrival leaves the optimum, and so the running value, unchanged
                arrival = (item_id, row)
                if bound and _outvalued(arrival, bound):
                    decided[i] = (False, running)
                    continue
                contenders = [*optimum, arrival]
                sol = _solve_assignment(*zip(*contenders), spec)
                assigned = dict(sol.assignment)
                if item_id not in assigned:
                    decided[i] = (False, running)
                    continue
                running = sol.value
                optimum = [y for y in contenders if y[0] in assigned]
                bound = _value_bound(optimum, assigned) if len(optimum) == spec.k else []
            kept.append(i)
            for p, v in owned:
                heap = heaps[p]
                if len(heap) < sizes[p]:
                    heapq.heappush(heap, (v, item_id))
                elif (v, item_id) > heap[0]:
                    heapq.heapreplace(heap, (v, item_id))
            if single and trace:
                # the heaps hold the optimum; fsum rounds exactly, as the solver's sum does
                running = math.fsum(e[0] for heap in heaps for e in heap)
            decided[i] = (True, running)
    steps: list[TraceStep] | None = None
    if trace:
        steps, running = [], 0.0
        for i, pos in enumerate(positions.tolist()):
            retained, running = decided.get(i, (False, running))
            steps.append(TraceStep(pos, pos, retained, running))
    return kept, steps


def greedy_screen(
    stream: Instance,
    spec: ConstraintSpec,
    warmup: int,
    trace: bool = False,
) -> GreedyResult:
    """Screen a full stream; returns kept ids and the optimum over them.

    Raises ``InputError`` when the stream fails validation or the warmup
    exceeds the stream length.
    """
    require_valid(validate_instance(stream, spec), "stream")
    if not isinstance(warmup, int) or warmup < 0 or warmup > stream.n:
        raise InputError(f"warmup must lie in 0..{stream.n}, got {warmup!r}")
    entries = Arrivals(stream.ids, stream.columns(spec.d))
    kept, steps = screen_entries(entries, spec, warmup, trace)
    final = optimal_matching(stream.take(kept), spec)
    return GreedyResult(
        retained_ids=tuple(stream.ids[kept].tolist()),
        final_solution=final,
        trace=tuple(steps) if steps is not None else None,
    )
