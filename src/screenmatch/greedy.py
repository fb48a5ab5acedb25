"""Online greedy screening: skip a warmup prefix, then keep an item exactly
when it participates in the current optimum over the items kept so far.

Because the offline solver's tie order is total and consistent across
prefixes, deciding against the kept-items-plus-newcomer set is equivalent
to deciding against the full prefix; the test suite checks this prefix
consistency explicitly on small instances.

The pass keeps, per property, a min-heap of the top k (value, id) pairs
among kept items.  By the solver's pool lemma, an arrival that ranks
below the k-th best kept item in every property it possesses is outside
the optimum, so it is rejected without a solve; at d = 1 this gate is the
whole decision.  Any other arrival is decided by solving over the
items still in some heap plus the newcomer, which has the same optimum as
all kept items plus the newcomer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ConfigError, ConstraintSpec, InputError, Instance, Item, require_valid, validate_instance
)
from .matching import Solution, optimal_matching

__all__ = ["TraceStep", "GreedyResult", "warmup_length", "greedy_screen"]


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


def screen_entries(
    entries: Sequence[tuple[int, Item]],
    spec: ConstraintSpec,
    warmup: int,
    trace: bool = False,
) -> tuple[list[Item], list[TraceStep] | None]:
    """Greedy pass over (original position, item) pairs.

    Positions are compared against ``warmup``, so a filtered subsequence
    keeps its original stream geometry.  Used by both ``greedy_screen``
    and the combined pipeline.  A step's ``running_value`` is the optimum
    value over the items kept so far.
    """
    k = spec.k
    heaps: list[list[tuple[float, int, Item]]] = [[] for _ in range(spec.d)]
    kept: list[Item] = []
    steps: list[TraceStep] | None = [] if trace else None
    running = 0.0
    for pos, item in entries:
        retained = False
        if pos >= warmup:
            # a plain loop, not any(): this gate runs once per arrival
            contender = False
            for p, v in item.props.items():
                heap = heaps[p]
                if len(heap) < k or (v, item.id) > heap[0]:
                    contender = True
                    break
            if contender:
                pool = {e[1]: e[2] for heap in heaps for e in heap}
                sol = optimal_matching([*pool.values(), item], spec)
                # rejected items never displace anyone, so the optimum is unchanged
                running = sol.value
                retained = item.id in sol.real_ids()
            if retained:
                kept.append(item)
                for p, v in item.props.items():
                    heap = heaps[p]
                    if len(heap) < k:
                        heapq.heappush(heap, (v, item.id, item))
                    elif (v, item.id) > heap[0]:
                        heapq.heapreplace(heap, (v, item.id, item))
        if steps is not None:
            steps.append(TraceStep(pos, item.id, retained, running))
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
    entries = [(item.id, item) for item in stream.items]
    kept, steps = screen_entries(entries, spec, warmup, trace)
    final = optimal_matching(kept, spec)
    return GreedyResult(
        retained_ids=tuple(item.id for item in kept),
        final_solution=final,
        trace=tuple(steps) if steps is not None else None,
    )
