"""Threshold policies: retain an item iff some possessed property's value
clears that property's threshold.

``ABOVE`` (float infinity) is the "retain nothing for this property"
sentinel; a finite threshold t retains values >= t, equality included.
Two learners are provided: thresholds read off an optimal assignment of a
training sample (the minimum assigned value per property), and top-m order
statistics per property.  ``coverage_rank`` is the top-m rank whose
thresholds cover a stream's top k with a given probability, for any
distribution.  ``quantile_policy_net`` builds the grid of empirical
quantile policies used by the convergence experiments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .core import (
    ConfigError, ConstraintSpec, Instance, _check_count, _read_json, _write_json, is_dummy_id,
    require_valid, validate_items,
)
from .matching import optimal_matching

__all__ = [
    "ABOVE",
    "is_above",
    "ThresholdsPolicy",
    "RetentionStats",
    "NetSizeError",
    "screen_with_policy",
    "learn_optimal_thresholds",
    "learn_topm_thresholds",
    "coverage_rank",
    "quantile_policy_net",
    "read_policy",
    "write_policy",
]

# Sentinel threshold: no finite value reaches it, so the property retains nothing.
ABOVE = float("inf")


def is_above(t: float) -> bool:
    return math.isinf(t) and t > 0


class NetSizeError(RuntimeError):
    """Policy net would exceed the configured cap."""


@dataclass(frozen=True, slots=True)
class ThresholdsPolicy:
    """One threshold per property; entries are floats in [0, 1] or ``ABOVE``."""

    t: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.t) == 0:
            raise ConfigError("policy needs at least one threshold")
        for x in self.t:
            if not (is_above(x) or (0.0 <= x <= 1.0)):
                raise ConfigError(f"threshold {x!r} is neither in [0, 1] nor ABOVE")

    @property
    def d(self) -> int:
        return len(self.t)

    def to_json_obj(self) -> dict:
        """``ABOVE`` is written as the string "ABOVE"; ``read_policy`` is the inverse."""
        return {"t": ["ABOVE" if is_above(x) else x for x in self.t]}


@dataclass(frozen=True, slots=True)
class RetentionStats:
    """Counts per property, the total retained, and (when a constraint spec
    was supplied) the optimal assignment value of the retained items."""

    per_property: tuple[int, ...]
    total: int
    value: float | None


def _check_width(policy: ThresholdsPolicy, spec: ConstraintSpec) -> None:
    """A policy screening for ``spec`` holds one threshold per property."""
    if policy.d != spec.d:
        raise ConfigError(f"policy has {policy.d} thresholds but spec has {spec.d} properties")


def _clears(values: np.ndarray, floors: Sequence[float]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The screening rule on an (m, d) value matrix: per property p, the rows
    whose value at p is >= ``floors[p]`` (NaN never is), and the rows that
    clear some property.  The test runs one column at a time: reducing the
    row-major matrix along its short axis costs several times more."""
    hits = [col >= floor for col, floor in zip(values.T, floors)]
    return functools.reduce(np.logical_or, hits), hits


def screen_with_policy(
    policy: ThresholdsPolicy,
    inst: Instance,
    spec: ConstraintSpec | None = None,
) -> tuple[Instance, RetentionStats]:
    """Filter a stream through a policy.

    Returns the retained sub-stream (original ids, arrival order) and
    retention statistics.  The per-property count for property p counts
    items that possess p and clear t[p] (one item can count toward several
    properties); the total counts distinct retained items.  A missing
    property is NaN, which clears no threshold.  Both come from one
    comparison per property column (``_clears``), the rule every screening
    gate applies.

    It trusts ``inst`` unchecked, because its callers check first and a
    check costs as much as the screen: the ``screen`` command checks its
    file and the pipeline its stream, and a policy-fixed trial screens a
    stream it sampled, valid by construction.  With ``spec``, the retained
    rows are solved by ``optimal_matching``, which checks them.
    """
    if spec is not None:
        _check_width(policy, spec)
    passed, hits = _clears(inst.columns(policy.d), policy.t)
    retained = inst.take(passed)
    value = None if spec is None else optimal_matching(retained, spec).value
    stats = RetentionStats(tuple(int(np.count_nonzero(h)) for h in hits), retained.n, value)
    return retained, stats


def learn_optimal_thresholds(train: Instance, spec: ConstraintSpec) -> ThresholdsPolicy:
    """Thresholds read off an optimal assignment of the training sample.

    For each property the threshold is the smallest value among the real
    items the optimum assigns to it; properties filled only by dummies
    (or an empty training sample) get threshold 0.  The solver checks
    ``train``.
    """
    solution = optimal_matching(train, spec)
    pairs = [(i, p) for i, p in solution.assignment if not is_dummy_id(i)]
    mins: dict[int, float] = {}
    for (_, prop), v in zip(pairs, train.values_at(pairs)):
        if prop not in mins or v < mins[prop]:
            mins[prop] = v
    return ThresholdsPolicy(tuple(mins.get(p, 0.0) for p in range(spec.d)))


def _owned_values(train: Instance, d: int) -> list[np.ndarray]:
    """Per property, the values of the items possessing it, in new arrays
    the caller may reorder."""
    return [col[col == col] for col in train.columns(d).T]


def learn_topm_thresholds(
    train: Instance, spec: ConstraintSpec, m: Sequence[int]
) -> ThresholdsPolicy:
    """Per property p: the m[p]-th largest training value among items
    possessing p, or 0 when fewer than m[p] such items exist."""
    if len(m) != spec.d:
        raise ConfigError(f"m must have {spec.d} entries, got {len(m)}")
    if any(type(x) is not int or x < 1 for x in m):
        raise ConfigError(f"m entries must be positive integers, got {tuple(m)}")
    require_valid(validate_items(train, spec), "train")
    out = []
    for vals, rank in zip(_owned_values(train, spec.d), m):
        cut = vals.size - rank
        if cut < 0:
            out.append(0.0)
        else:
            vals.partition(cut)  # in place: ``_owned_values`` hands back copies
            out.append(float(vals[cut]))
    return ThresholdsPolicy(tuple(out))


@functools.lru_cache(maxsize=1024, typed=True)  # typed: 5.0 must not hit 5's answer unchecked
def coverage_rank(n_train: int, n_stream: int, k: int, d: int, budget: float) -> int:
    """The least m >= k with d * P(Hyp(n_train + n_stream, n_stream, k + m - 1)
    <= k - 1) <= ``budget``, or max(k, n_train + 1) when no m <= n_train
    meets it (as at n_stream < k).

    The hypergeometric term is the chance that fewer than k of the top
    k + m - 1 among n_train + n_stream exchangeable scores belong to the
    stream (Gumbel and von Schelling 1950; Wilks 1941): the chance that a
    top-m training threshold misses one of the stream's top k.  The sums
    are exact, in integers against ``Fraction(budget)``.  The tail falls as
    m grows, so m is found by doubling, then bisection.  Every trial of a
    run asks the same question, so the answers are cached.
    """
    _check_count(n_train, "n_train")
    _check_count(n_stream, "n_stream")
    _check_count(k, "k", 1)
    _check_count(d, "d", 1)
    if not (0.0 < budget < 1.0):
        raise ConfigError(f"budget must lie in (0, 1), got {budget!r}")
    # at m = n_train + 1 the top k + m - 1 scores hold at least k of the stream's
    top = max(k, n_train + 1)
    if n_stream < k:
        return top
    num, den = Fraction(budget).as_integer_ratio()

    def misses(m: int) -> bool:
        # j training scores among the top k + m - 1 leave fewer than k for the
        # stream when j >= m; C(n_train, j) steps to C(n_train, j + 1) exactly
        draws, ways, low = k + m - 1, math.comb(n_train, m), 0
        for j in range(m, min(n_train, draws) + 1):
            low += math.comb(n_stream, draws - j) * ways
            ways = ways * (n_train - j) // (j + 1)
        return d * low * den > num * math.comb(n_train + n_stream, draws)

    miss, step = k - 1, 1
    while miss + step < top and misses(miss + step):
        miss, step = miss + step, 2 * step
    hit = min(miss + step, top)
    while hit - miss > 1:
        mid = (miss + hit) // 2
        miss, hit = (mid, hit) if misses(mid) else (miss, mid)
    return hit


def quantile_policy_net(
    train: Instance,
    spec: ConstraintSpec,
    n: int,
    *,
    max_net_size: int = 20000,
) -> tuple[ThresholdsPolicy, ...]:
    """Cartesian product of per-property empirical quantile thresholds.

    Per property the grid targets retention mass j/(d*n) for
    j = 0..min(10*d*k, available mass) with k = ``spec.k``, realized as order
    statistics of the training sample; j = 0 becomes ``ABOVE`` and 0 is always
    appended.  An empty training sample yields the single all-zero policy.  Raises
    ``NetSizeError`` when the product would exceed ``max_net_size``.
    """
    _check_count(n, "n", 1)
    _check_count(max_net_size, "max_net_size", 1)
    require_valid(validate_items(train, spec), "train")
    d = spec.d
    if train.n == 0:
        return (ThresholdsPolicy((0.0,) * d),)

    per_property: list[list[float]] = []
    for owned in _owned_values(train, d):
        vals = np.sort(owned)[::-1].tolist()
        grid: list[float] = [ABOVE]
        j_cap = 10 * d * spec.k
        for j in range(1, j_cap + 1):
            count = round(j * train.n / (d * n))
            if count < 1:
                continue
            if count > len(vals):
                break
            grid.append(vals[count - 1])
        grid.append(0.0)
        per_property.append(list(dict.fromkeys(grid)))

    size = math.prod(len(g) for g in per_property)
    if size > max_net_size:
        raise NetSizeError(
            f"policy net would hold {size} policies, more than the cap of {max_net_size}"
        )
    return tuple(ThresholdsPolicy(ts) for ts in itertools.product(*per_property))


def write_policy(policy: ThresholdsPolicy, fh: IO[str]) -> None:
    _write_json(policy.to_json_obj(), fh)


def read_policy(fh: IO[str], source: str = "<policy>") -> ThresholdsPolicy:
    def build(obj) -> ThresholdsPolicy:
        given = obj["t"]
        if type(given) is not list:  # an object's keys would read as thresholds
            raise TypeError(f"thresholds must be a JSON array, got {given!r}")
        t = tuple(ABOVE if x == "ABOVE" else x for x in given)
        if any(type(x) is not float and type(x) is not int for x in t):
            raise TypeError(f'thresholds must be numbers or "ABOVE", got {given!r}')
        # Infinity and 1e999 parse as ABOVE's float; only the string stands for it
        if any(x == ABOVE for x in given):
            raise ValueError(f'an infinite threshold must be written "ABOVE", got {given!r}')
        return ThresholdsPolicy(tuple(float(x) for x in t))

    return _read_json(fh, source, "policy", build)
