"""Online greedy screening: skip a warmup prefix, then keep an item exactly
when it participates in the current optimum over the items kept so far.

Because the offline solver's tie order is total and consistent across
prefixes, deciding against the kept-items-plus-newcomer set is equivalent
to deciding against the full prefix; the test suite checks this prefix
consistency explicitly on small instances.

The pass decides each arrival x against the current optimum M over the
kept items.  By the exchange lemma, the optimum over the kept items plus
x uses only M's items and x, and differs from M along one alternating
path from x (successive shortest paths, Edmonds and Karp 1972): x takes a
slot of some property, the item there moves to another property or
leaves, and so on.  M is held as a ``matching.Held``: per property, M's
(id, value row, weights) items and their move and drop tables, with M's
path potentials ``reach``.  An item's exact weights W(y, p) = value *
2^1074 * B + (id + 1) are built once, when it arrives, by
``matching._weights``: B, a power of two above (k + 1)(n + 1), keeps the
id terms below one value unit.  ``matching._path_step`` (the step the
solver builds its optimum with) keeps x exactly when W(x, p) + reach[p]
> 0 at some property p it owns, and then applies the path to M, with no
solve.  The solver's layer-4 digits are not needed: a decision is about
sets, and the sets it compares, M and M + x - y, differ in their sums of
id + 1.  Counting id + 1, not id, settles the one exception, a dummy y
against an arrival of id 0.  A rejected arrival leaves M as it was.

Since id + 1 < B, an arrival is kept at p only if its value exceeds
(-reach[p] - B) / 2^shift, so each potential gives a value floor
(``_floors``) that the pass checks before it builds the weights.  When
every arrival owns a single property (d = 1, and disjoint streams) the
properties do not compete: the optimum is the top ``caps[p]`` of each
property, the solver's own single-property rule, and a min-heap of the
top ``caps[p]`` (value, id) pairs per property, started as ``caps[p]``
empty slots (-inf, -1) that every arrival beats, is the whole decision.

No ``Item`` is built: the pass returns the indices of the kept arrivals
and M as a ``Solution``.  On single-property streams that is the heaps
filled out with dummies; otherwise the solver's ``_solve_assignment`` over
M's at most k items, which by the pool lemma is the optimum over the kept
items, layer 4 included.  Arrivals come as value rows and are gated a
block at a time, from the first arrival past the warmup, in blocks of k,
2k, 4k, ... arrivals: one column per property, numpy drops every arrival
of the block whose values all lie below the floors, or the heaps' minima,
at the block's start.  These only rise within a block (the
potentials never rise as items are kept, since the weighted rank of a
matroid is submodular), so the arrivals this drops are ones the exact
check would reject too, and only the rest reach it one by one.  As the
floors tighten, the blocks grow, and the arrivals that reach the exact
check stay about as many as the ones it keeps.  The pass only decides:
``greedy_screen`` builds its trace afterwards from the kept arrivals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
import numpy as np

from .core import (
    ConfigError, ConstraintSpec, InputError, Instance, _check_count, require_valid,
    validate_instance,
)
from .matching import Held, Solution, _fill, _path_step, _solve_assignment, _weights
from .thresholds import _clears

__all__ = ["TraceStep", "GreedyResult", "Arrivals", "warmup_length", "greedy_screen"]


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
    _check_count(n, "n")
    _check_count(k, "k", 1)
    if not (0.0 <= delta <= 1.0):
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

    def __iter__(self):
        return zip(self.pos.tolist(), self.values)


def _floors(reach: list[int], shift: int) -> list[float]:
    """Per property p, a double below which no arrival x passes W(x, p) +
    reach[p] > 0, which needs value * 2^shift > -reach[p] - B as id + 1 < B;
    the quotient is rounded once and stepped down past the rounding."""
    bound = 1 << (shift - 1074)
    return [math.nextafter((-r - bound) / (1 << shift), -math.inf) for r in reach]


def screen_entries(
    entries: Arrivals,
    spec: ConstraintSpec,
    warmup: int,
) -> tuple[list[int], Solution]:
    """Greedy pass over ``Arrivals``; an arrival's id is its position.

    Returns the indices into ``entries`` of the kept arrivals, in arrival
    order, and the optimum over them, the ``Solution`` the offline solver
    gives for the kept items.  Positions ascend and are compared against
    ``warmup``, so a filtered subsequence keeps its original stream
    geometry.  Its callers (``greedy_screen``, the combined pipeline and
    the greedy trial) have checked the items, so nothing here checks them
    again.  The pass only decides: ``greedy_screen`` builds a trace from
    the kept arrivals it returns.
    """
    positions, values = entries.pos, entries.values
    # a checked arrival owns some property, so each owns one when the owned entries add up to m
    single = np.count_nonzero(values == values) == len(values)
    heaps = [[(-math.inf, -1)] * cap for cap in spec.caps]
    kept: list[int] = []
    # overlap streams: the optimum M, its real items per property, and its potentials
    held = Held(spec.d)
    # B = 2^(shift - 1074) exceeds the id terms of k + 1 items
    shift = 1074 + ((spec.k + 1) * (int(positions.max(initial=0)) + 2)).bit_length()
    # a value below its property's low fails the exact check below: below the
    # floor on overlap streams, below the heap's minimum on single-property ones
    lows = [-math.inf] * spec.d if single else _floors(held.reach, shift)
    # blocks of k, 2k, 4k, ... arrivals from the first one past the warmup
    start, size = int(np.searchsorted(positions, warmup)), spec.k
    while start < len(positions):
        survivors = _clears(values[start : start + size], lows)[0].nonzero()[0] + start
        for i, item_id, row in zip(
            survivors.tolist(), positions[survivors].tolist(), values[survivors].tolist()
        ):
            if single:
                ((p, v),) = [(p, v) for p, v in enumerate(row) if v == v]
                heap = heaps[p]
                if (v, item_id) < heap[0]:
                    continue
                heapq.heapreplace(heap, (v, item_id))
                lows[p] = heap[0][0]
            else:
                if not any(v >= low for v, low in zip(row, lows)):
                    continue
                entry = (item_id, row, _weights(item_id, row, shift))
                if not _path_step(held, entry, spec.caps):
                    continue
                lows = _floors(held.reach, shift)
            kept.append(i)
        start, size = start + size, 2 * size
    if single:
        best = _fill([[(i, v) for v, i in heap if i >= 0] for heap in heaps], spec.caps)
    else:
        optimum = sorted((y[0], y[1]) for ys in held for y in ys)
        best = _solve_assignment([i for i, _ in optimum], [row for _, row in optimum], spec)
    return kept, best


def greedy_screen(
    stream: Instance,
    spec: ConstraintSpec,
    warmup: int,
    trace: bool = False,
) -> GreedyResult:
    """Screen a full stream; returns kept ids and the optimum over them.

    With ``trace``, each arrival gets one step: its position, whether it
    was kept, and the optimum's value over the items kept so far.  The
    trace is built after the pass, by path steps over the kept arrivals.

    Raises ``InputError`` when the stream fails validation or the warmup
    exceeds the stream length.
    """
    require_valid(validate_instance(stream, spec), "stream")
    if not isinstance(warmup, int) or warmup < 0 or warmup > stream.n:
        raise InputError(f"warmup must lie in 0..{stream.n}, got {warmup!r}")
    values = stream.columns(spec.d)
    kept, final = screen_entries(Arrivals(stream.ids, values), spec, warmup)
    steps: list[TraceStep] = []
    if trace:
        # ids are positions; a rejected arrival left the optimum as it was, so
        # each kept one enters again and ``held`` is the optimum it entered
        held, running = Held(spec.d), 0.0
        shift = 1074 + ((spec.k + 1) * (stream.n + 1)).bit_length()
        rows = dict(zip(kept, values[kept].tolist()))
        for i in range(stream.n):
            if i in rows:
                _path_step(held, (i, rows[i], _weights(i, rows[i], shift)), spec.caps)
                # fsum rounds exactly, as the solver's sum does
                running = math.fsum([y[1][p] for p, ys in enumerate(held) for y in ys])
            steps.append(TraceStep(i, i, i in rows, running))
    return GreedyResult(tuple(stream.ids[kept].tolist()), final, tuple(steps) if trace else None)
