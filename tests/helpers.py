"""Random instance builders shared by the test modules."""

import numpy as np

from screenmatch import ConstraintSpec, Instance, Item, optimal_matching


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


def reference_screen(entries, spec: ConstraintSpec, warmup: int) -> list[Item]:
    """The greedy rule without the gate or the pool: after the warmup, keep
    an arrival iff it is in optimal_matching(kept + [item])."""
    kept: list[Item] = []
    for pos, item in entries:
        if pos >= warmup and item.id in optimal_matching(kept + [item], spec).real_ids():
            kept.append(item)
    return kept
