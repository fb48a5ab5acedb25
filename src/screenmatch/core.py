"""Domain types, item distributions, deterministic sampling, and validation.

An item carries a value in [0, 1] for each property it possesses.  A
constraint spec fixes, per property, how many retained items must be
assigned to it.  Dummy items (value 0 on every property, ids in a reserved
range) make every assignment problem feasible.

All sampling is deterministic: ``sample_instance(dist, n, seed)`` always
returns bit-identical values, and independent consumers derive their own
integer sub-seeds from a root seed plus a purpose label via ``derive_seed``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from numbers import Real
from typing import IO, Iterator, Sequence

import numpy as np

__all__ = [
    "DUMMY_ID_BASE",
    "DIST_KINDS",
    "ConfigError",
    "InputError",
    "Item",
    "ConstraintSpec",
    "Instance",
    "DistributionSpec",
    "Violation",
    "is_dummy_id",
    "derive_seed",
    "sample_instance",
    "dummy_items",
    "validate_items",
    "validate_instance",
    "require_valid",
    "read_instance",
    "write_instance",
    "read_constraint_spec",
    "write_constraint_spec",
    "read_distribution_spec",
    "write_distribution_spec",
    "format_value",
]

# Real item ids must stay strictly below this; dummies live at and above it.
DUMMY_ID_BASE = 1 << 32

DIST_KINDS = (
    "single-property-uniform",
    "disjoint-properties-uniform",
    "overlap-bernoulli",
)


class ConfigError(ValueError):
    """A parameter object (distribution, caps, slack argument) is invalid."""


class InputError(ValueError):
    """Input data is invalid: malformed file, or items violating a spec."""


def is_dummy_id(item_id: int) -> bool:
    """True when the id falls in the reserved dummy range."""
    return item_id >= DUMMY_ID_BASE


@dataclass(frozen=True, slots=True)
class Item:
    """One item: an integer id plus a property -> value map.

    Real items have ids below ``DUMMY_ID_BASE`` equal to their 0-based
    arrival position in their stream.  ``props`` must be nonempty with
    values in [0, 1]; treat it as immutable after construction.
    """

    id: int
    props: dict[int, float]

    def value_for(self, prop: int) -> float | None:
        return self.props.get(prop)


@dataclass(frozen=True, slots=True)
class ConstraintSpec:
    """Per-property slot counts.  ``caps[i]`` slots must go to property i."""

    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.caps) == 0:
            raise ConfigError("caps must list at least one property")
        if any((not isinstance(c, int)) or c < 1 for c in self.caps):
            raise ConfigError(f"caps must be positive integers, got {self.caps}")

    @property
    def d(self) -> int:
        return len(self.caps)

    @property
    def k(self) -> int:
        return sum(self.caps)


@dataclass(frozen=True, slots=True)
class Instance:
    """An ordered stream of real items.

    Invariants (guaranteed by the sampler and the file loader, reported by
    ``validate_instance`` for hand-built instances): item ids equal their
    0-based position, and no ids fall in the dummy range.
    """

    items: tuple[Item, ...]

    @property
    def n(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class DistributionSpec:
    """How streams are drawn.

    Kinds:

    - ``single-property-uniform``: every item possesses property 0 only,
      value uniform on [0, 1].  Requires ``d == 1``.
    - ``disjoint-properties-uniform``: each item possesses exactly one of
      the d properties, chosen uniformly; value uniform on [0, 1].
    - ``overlap-bernoulli``: property p is possessed independently with
      probability ``membership[p]``; draws with no property at all are
      rejected and resampled; each possessed property gets an independent
      uniform value.
    """

    kind: str
    d: int
    membership: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in DIST_KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if not isinstance(self.d, int) or self.d < 1:
            raise ConfigError(f"d must be a positive integer, got {self.d!r}")
        if self.kind == "single-property-uniform" and self.d != 1:
            raise ConfigError("single-property-uniform requires d == 1")
        if self.kind == "overlap-bernoulli":
            q = self.membership
            if q is None or len(q) != self.d:
                raise ConfigError("overlap-bernoulli needs one membership probability per property")
            if any(not (0.0 <= x <= 1.0) for x in q):
                raise ConfigError(f"membership probabilities must lie in [0, 1], got {q}")
            if max(q) <= 0.0:
                raise ConfigError("at least one membership probability must be positive")
        elif self.membership is not None:
            raise ConfigError(f"kind {self.kind!r} takes no membership parameter")


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """Stable 63-bit sub-seed for (root seed, purpose label, trial index)."""
    digest = hashlib.sha256(f"{seed}|{label}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _draw_single_class(dist: DistributionSpec, n: int, rng: np.random.Generator):
    """Class index and value arrays for the one-property-per-item kinds."""
    if dist.kind == "single-property-uniform":
        classes = np.zeros(n, dtype=np.int64)
    else:
        classes = rng.integers(0, dist.d, size=n)
    values = rng.random(n)
    return classes, values


def sample_instance(dist: DistributionSpec, n: int, seed: int) -> Instance:
    """Draw an n-item instance.  Bit-identical for identical arguments."""
    if not isinstance(n, int) or n < 0:
        raise ConfigError(f"n must be a nonnegative integer, got {n!r}")
    rng = np.random.default_rng(seed)
    if dist.kind in ("single-property-uniform", "disjoint-properties-uniform"):
        classes, values = _draw_single_class(dist, n, rng)
        # tolist() yields Python ints and floats already
        props = [{c: v} for c, v in zip(classes.tolist(), values.tolist())]
        return Instance(tuple(map(Item, range(n), props)))

    q = np.asarray(dist.membership, dtype=float)
    props = []
    for _ in range(n):
        while True:
            mask = rng.random(dist.d) < q
            owned = np.flatnonzero(mask)
            if owned.size:
                break
        props.append(dict(zip(owned.tolist(), rng.random(owned.size).tolist())))
    return Instance(tuple(map(Item, range(n), props)))


def dummy_items(spec: ConstraintSpec) -> tuple[Item, ...]:
    """k dummies with reserved ids, possessing every property at value 0."""
    props = {p: 0.0 for p in range(spec.d)}
    return tuple(Item(DUMMY_ID_BASE + i, dict(props)) for i in range(spec.k))


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation finding.  ``kind`` is a stable machine-readable token."""

    kind: str
    item_id: int | None
    detail: str


def validate_items(items: Sequence[Item], spec: ConstraintSpec) -> tuple[Violation, ...]:
    """Check a bag of real items against a spec; empty result means valid.

    This is the one item rule set; every entry point that reads items runs
    it (through ``require_valid``).  Reported kinds: duplicate-id, dummy-id,
    empty-props, unknown-property (an index that is not an int, a bool, or
    one outside 0..d-1) and value-out-of-range (NaN and infinities
    included, and a value that is not a number or is a bool).  Dummies are
    not real items, so a dummy passed here is reported as dummy-id.
    """
    d = spec.d
    out: list[Violation] = []
    seen: set[int] = set()
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
            # sampled and read values are floats, so they pass on the first test
            if type(v) is not float and (type(v) is bool or not isinstance(v, Real)):
                out.append(Violation("value-out-of-range", i, f"value {v!r} is not a number"))
            elif not 0.0 <= v <= 1.0:
                out.append(Violation("value-out-of-range", i, f"value {v!r} outside [0, 1]"))
    return tuple(out)


def validate_instance(inst: Instance, spec: ConstraintSpec) -> tuple[Violation, ...]:
    """``validate_items`` plus the stream rule that ids equal positions."""
    out = list(validate_items(inst.items, spec))
    for pos, item in enumerate(inst.items):
        if item.id != pos:
            out.append(Violation("id-position-mismatch", item.id, f"id {item.id} at position {pos}"))
    return tuple(out)


def require_valid(violations: Sequence[Violation], what: str) -> None:
    """Raise ``InputError`` naming the count and the first of nonempty ``violations``."""
    if violations:
        first = violations[0]
        raise InputError(
            f"invalid {what}: {len(violations)} violation(s), first is {first.kind}"
            f" at item {first.item_id} ({first.detail})"
        )


def format_value(v: float) -> str:
    """Serialize a value with enough digits to round-trip bit-exactly."""
    return format(float(v), ".17g")


def write_instance(inst: Instance, fh: IO[str]) -> None:
    """One JSON object per line: {"id": ..., "props": [[p, v], ...]}."""
    for item in inst.items:
        pairs = ", ".join(
            f"[{p}, {format_value(v)}]" for p, v in sorted(item.props.items())
        )
        fh.write(f'{{"id": {item.id}, "props": [{pairs}]}}\n')


def read_instance(fh: IO[str], source: str = "<instance>") -> Instance:
    """Parse a JSON Lines instance file; errors name the offending line."""
    items: list[Item] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            item_id = obj["id"]
            prop_pairs = obj["props"]
            props = {}
            for p, v in prop_pairs:
                # JSON numbers are taken as they are: no bool, string or rounding
                if type(p) is not int:
                    raise TypeError(f"property {p!r} is not an integer")
                if type(v) is not float and type(v) is not int:
                    raise TypeError(f"value {v!r} is not a number")
                props[p] = float(v)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{source}:{lineno}: malformed item record ({exc})") from exc
        if len(props) != len(prop_pairs):
            raise InputError(f"{source}:{lineno}: item record lists a property more than once")
        if type(item_id) is not int:
            raise InputError(f"{source}:{lineno}: item id must be an integer")
        if item_id != len(items):
            raise InputError(
                f"{source}:{lineno}: item id {item_id} does not equal its position {len(items)}"
            )
        items.append(Item(item_id, props))
    return Instance(tuple(items))


def write_constraint_spec(spec: ConstraintSpec, fh: IO[str]) -> None:
    json.dump({"caps": list(spec.caps)}, fh, sort_keys=True)
    fh.write("\n")


def read_constraint_spec(fh: IO[str], source: str = "<spec>") -> ConstraintSpec:
    try:
        obj = json.load(fh)
        caps = tuple(obj["caps"])
        if any(type(c) is not int for c in caps):
            raise TypeError(f"caps must be integers, got {obj['caps']!r}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{source}: malformed constraint spec ({exc})") from exc
    try:
        return ConstraintSpec(caps)
    except ConfigError as exc:
        raise InputError(f"{source}: {exc}") from exc


def write_distribution_spec(dist: DistributionSpec, fh: IO[str]) -> None:
    obj: dict = {"kind": dist.kind, "d": dist.d}
    if dist.membership is not None:
        obj["membership"] = list(dist.membership)
    json.dump(obj, fh, sort_keys=True)
    fh.write("\n")


def read_distribution_spec(fh: IO[str], source: str = "<dist>") -> DistributionSpec:
    try:
        obj = json.load(fh)
        kind = obj["kind"]
        d = obj["d"]
        if type(d) is not int:
            raise TypeError(f"d must be an integer, got {d!r}")
        membership = obj.get("membership")
        if membership is not None:
            if any(type(q) is not float and type(q) is not int for q in membership):
                raise TypeError(f"membership must be numbers, got {membership!r}")
            membership = tuple(float(q) for q in membership)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{source}: malformed distribution spec ({exc})") from exc
    try:
        return DistributionSpec(kind, d, membership)
    except ConfigError as exc:
        raise InputError(f"{source}: {exc}") from exc
