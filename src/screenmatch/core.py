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
import re
import sys
from dataclasses import dataclass
from numbers import Real
from typing import IO, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    "validate_items",
    "validate_instance",
    "require_valid",
    "read_instance",
    "write_instance",
    "read_constraint_spec",
    "write_constraint_spec",
    "read_distribution_spec",
    "write_distribution_spec",
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


def _check_count(value: int, name: str, least: int = 0) -> None:
    """Refuse a count that is not an int of at least ``least`` (0 or 1),
    naming it: a size, a seed, a trial or worker count, or its flag."""
    if not isinstance(value, int) or value < least:
        kind = "positive" if least else "nonnegative"
        raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")


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


class Instance:
    """An ordered stream of real items, held by column.

    ``values`` is an (n, d) float64 matrix: row i holds the values of the
    stream's i-th item, NaN for each property it does not possess.  ``ids``
    holds the item ids.  Invariants (guaranteed by the sampler and the file
    loader, reported by ``validate_instance`` for hand-built instances):
    item ids equal their 0-based position, and no ids fall in the dummy
    range.

    A sampled instance is valid by construction (see ``sample_instance``);
    its ``ids`` and ``values`` are read-only, so writing into them raises
    ``ValueError``.  ``take`` gives an ordinary, writable instance.

    ``Instance(items)`` builds a stream from ``Item`` objects, and ``items``
    (or iterating) gives the stream back as ``Item`` objects, built on first
    use.  A stream read from a file also keeps each item's line number.
    Until a spec has checked it, an instance holds its (item, property,
    value) entries as they came, so an out-of-range property index costs
    one entry, not a column: ``values`` is meant for checked instances.
    """

    __slots__ = ("ids", "lines", "source", "_values", "_entries", "_items", "_sampled_d")

    def __init__(self, items: Iterable[Item] = ()) -> None:
        items = tuple(items)
        self._init(np.array([item.id for item in items], dtype=np.int64), items=items)

    def _init(self, ids, values=None, entries=None, items=None, lines=None, source=None):
        self.ids = ids
        self.lines = lines
        self.source = source
        self._values = values
        self._entries = entries
        self._items = items
        # the d of the distribution that drew this instance, None unless sampled
        self._sampled_d = None

    @classmethod
    def from_values(cls, values: np.ndarray, ids: np.ndarray | None = None) -> "Instance":
        """An instance over an (n, d) value matrix; ids default to positions."""
        inst = cls.__new__(cls)
        inst._init(np.arange(len(values)) if ids is None else ids, values=values)
        return inst

    @property
    def n(self) -> int:
        return len(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.items == other.items

    __hash__ = None

    def __repr__(self) -> str:
        return f"Instance(n={self.n})"

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            rows, props, vals, _ = self.entries()
            placed = props >= 0
            width = int(props.max()) + 1 if placed.any() else 0
            self._values = np.full((self.n, width), np.nan)
            self._values[rows[placed], props[placed]] = vals[placed]
        return self._values

    def columns(self, d: int) -> np.ndarray:
        """The (n, d) value matrix for a spec with d properties."""
        values = self.values
        if values.shape[1] == d:
            return values
        out = np.full((self.n, d), np.nan)
        width = min(d, values.shape[1])
        out[:, :width] = values[:, :width]
        return out

    def take(self, rows) -> "Instance":
        """The sub-stream of the given rows (a mask or indices); ids are kept."""
        return Instance.from_values(self.values[rows], self.ids[rows])

    def values_at(self, pairs: Sequence[tuple[int, int]]) -> list[float]:
        """The value of each (item id, property) pair."""
        rows = np.flatnonzero(np.isin(self.ids, [i for i, _ in pairs]))
        row_of = dict(zip(self.ids[rows].tolist(), rows.tolist()))
        values = self.values
        return [float(values[row_of[i], p]) for i, p in pairs]

    def where(self, row: int) -> str | None:
        """``file:line`` of a row read from a file, else None."""
        return None if self.lines is None else f"{self.source}:{self.lines[row]}"

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """(rows, props, vals, odd): one entry per possessed property, item by
        item, in each item's property order.  ``odd`` maps the index of each
        entry whose property is not an int or whose value is not a float to
        its original (property, value) pair; its array slots hold -1 for a
        property that is no int and NaN for a value that is no number."""
        if self._entries is None:
            if self._items is not None:
                self._entries = _item_entries(self._items)
            else:
                where = np.flatnonzero(self._values == self._values)
                width = self._values.shape[1]
                # a division costs more than the rest of a d=1 check
                rows, props = np.divmod(where, width) if width > 1 else (where, where * 0)
                self._entries = (rows, props, self._values.ravel()[where], {})
        return self._entries

    @property
    def items(self) -> tuple[Item, ...]:
        if self._items is None:
            self._items = self._build_items()
        return self._items

    def _build_items(self) -> tuple[Item, ...]:
        rows, props, vals, odd = self.entries()
        owned: list[dict] = [{} for _ in range(self.n)]
        for e, (r, p, v) in enumerate(zip(rows.tolist(), props.tolist(), vals.tolist())):
            if e in odd:
                p, v = odd[e]
            owned[r][p] = v
        return tuple(map(Item, self.ids.tolist(), owned))


# property indices beyond this are kept as odd entries, outside the int64 arrays
_BIG = 1 << 62


def _as_number(v) -> float:
    """A value as a matrix entry: NaN when it is no number."""
    if type(v) is bool or not isinstance(v, Real):
        return np.nan
    try:
        return float(v)
    except OverflowError:
        return np.nan


def _odd_entries(rows: list, props: list, vals: list) -> tuple:
    """Entry arrays for pairs of any type; see ``Instance.entries``."""
    odd = {}
    for e, (p, v) in enumerate(zip(props, vals)):
        if type(p) is not int or type(v) is not float or not -_BIG <= p < _BIG:
            odd[e] = (p, v)
            props[e] = p if type(p) is int and 0 <= p < _BIG else -1
            vals[e] = _as_number(v)
    return (
        np.array(rows, dtype=np.int64),
        np.array(props, dtype=np.int64),
        np.array(vals, dtype=np.float64),
        odd,
    )


def _item_entries(items: Sequence[Item]) -> tuple:
    rows: list[int] = []
    props: list = []
    vals: list = []
    for r, item in enumerate(items):
        rows += [r] * len(item.props)
        props += item.props.keys()
        vals += item.props.values()
    return _odd_entries(rows, props, vals)


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
        _check_count(self.d, "d", 1)
        if self.kind == "single-property-uniform" and self.d != 1:
            raise ConfigError("single-property-uniform requires d == 1")
        if self.kind == "overlap-bernoulli":
            q = self.membership
            if q is None or len(q) != self.d:
                raise ConfigError("overlap-bernoulli needs one membership probability per property")
            if any(not (0.0 <= x <= 1.0) for x in q):
                raise ConfigError(f"membership probabilities must lie in [0, 1], got {q}")
            if _acceptance(q) <= 0.0:
                # (1e-17, 0.0) passes the range check, yet 1 - (1 - 1e-17) is 0.0
                raise ConfigError(
                    f"membership probabilities {q} give a draw no chance to own a property "
                    "(1 - prod(1 - q) is 0 in floating point)"
                )
        elif self.membership is not None:
            raise ConfigError(f"kind {self.kind!r} takes no membership parameter")


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """Stable 63-bit sub-seed for (root seed, purpose label, trial index)."""
    digest = hashlib.sha256(f"{seed}|{label}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _acceptance(membership) -> float:
    """The chance that an overlap draw owns at least one property,
    1 - prod(1 - q), as the sampler sizes its buffer with it."""
    return float(1.0 - np.prod(1.0 - np.asarray(membership, dtype=float)))


# squarings of the draw walk's jump table: a coarse step spans 2**4 draws
_WALK_LEVELS = 4


def _draw_starts(uniforms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The start positions, in order, of the accepted overlap draws that
    ``uniforms``, at least d long, holds whole.

    A draw at i ends at ``jump[i] = i + d + counts[i]``, where the next
    draw starts; ``counts[i]`` is the number of its d coins below q, held
    in the narrowest unsigned type that fits d.  Positions from m on, where
    no d coins fit, map to themselves.  Squaring ``jump`` gives ``top``,
    which spans 2**4 draws a step; Python walks ``top``, and one ``take``
    per row fills in the draws between its steps.
    """
    d = len(q)
    m = len(uniforms) - d + 1
    counts = (uniforms[:m] < q[0]).astype(np.min_scalar_type(d))
    for j in range(1, d):
        counts += uniforms[j : j + m] < q[j]
    jump = np.arange(m + 2 * d)
    head = jump[:m]
    head += d
    head += counts
    top = jump
    for _ in range(_WALK_LEVELS):
        top = top.take(top)
    coarse = []
    i = 0
    while i < m:
        coarse.append(i)
        i = top.item(i)
    # row r holds the r-th draw after each coarse step
    rows = np.empty((1 << _WALK_LEVELS, len(coarse)), dtype=np.intp)
    rows[0] = coarse
    for r in range(1, len(rows)):
        jump.take(rows[r - 1], out=rows[r])
    walk = rows.T.ravel()
    # the walk rises to its first position from m on and stays there
    walk = walk[: np.searchsorted(walk, m)]
    ends = jump.take(walk)
    return walk[(ends - walk > d) & (ends <= len(uniforms))]


def sample_instance(dist: DistributionSpec, n: int, seed: int) -> Instance:
    """Draw an n-item instance.  Bit-identical for identical arguments.

    An overlap-bernoulli stream is cut from one stream of uniforms.  Each
    draw takes d coin uniforms, the p-th below ``membership[p]`` exactly
    when the draw owns property p, then one value uniform per owned
    property, in property order.  A draw that owns none is rejected after
    its d coins.  The uniforms come in a buffer of about 1.1 times the
    expected need; when it holds fewer than n whole accepted draws, the
    sampler starts again from the seed with a buffer twice as long, whose
    uniforms begin with the same ones.  A membership that expects more
    than 2**20 uniforms per item is a ``ConfigError``, raised before
    anything is drawn.

    The instance is valid by construction for any spec with at least
    ``dist.d`` properties, so the rule set passes it at once; its arrays
    are read-only, so it stays so.
    """
    _check_count(n, "n")
    rng = np.random.default_rng(seed)
    if dist.kind == "single-property-uniform":
        return _sampled(rng.random(n).reshape(n, 1), dist.d)
    if dist.kind == "disjoint-properties-uniform":
        values = np.full((n, dist.d), np.nan)
        classes = rng.integers(0, dist.d, size=n)
        values[np.arange(n), classes] = rng.random(n)
        return _sampled(values, dist.d)
    q = np.asarray(dist.membership, dtype=float)
    d = dist.d
    per_draw = (d + q.sum()) / _acceptance(q)
    if per_draw > 2**20:
        raise ConfigError(
            f"membership probabilities {dist.membership} expect (d + sum(q)) / (1 - prod(1 - q))"
            f" = {per_draw:.4g} uniforms per item, above the sampler's limit of 2**20"
        )
    uniforms = rng.random(int(n * per_draw * 1.1) + 4 * d)
    starts = _draw_starts(uniforms, q)
    while len(starts) < n:
        uniforms = np.random.default_rng(seed).random(2 * len(uniforms))
        starts = _draw_starts(uniforms, q)
    starts = starts[:n]
    values = np.empty((n, d))
    # the next value uniform of each draw; past an unowned property of
    # the last draw it may point one past the buffer, hence the clip
    taken = starts + d
    for j in range(d):
        owned = uniforms.take(starts + j) < q[j]
        values[:, j] = np.where(owned, uniforms.take(taken, mode="clip"), np.nan)
        taken += owned
    return _sampled(values, d)


def _sampled(values: np.ndarray, d: int) -> Instance:
    """The instance of a sampled value matrix: its arrays are made read-only,
    and it is marked valid for any spec of at least d properties."""
    inst = Instance.from_values(values)
    values.flags.writeable = False
    inst.ids.flags.writeable = False
    inst._sampled_d = d
    return inst


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation finding.  ``kind`` is a stable machine-readable token;
    ``where`` is ``file:line`` for an item read from a file."""

    kind: str
    item_id: int | None
    detail: str
    where: str | None = None


def _pair_rules(p, v, d: int) -> list[tuple[str, str]]:
    """The rules for one (property, value) pair of an item."""
    out = []
    if type(p) is not int or not 0 <= p < d:
        out.append(("unknown-property", f"property {p!r} outside 0..{d - 1}"))
    # sampled and read values are floats, so they pass on the first test
    if type(v) is not float and (type(v) is bool or not isinstance(v, Real)):
        out.append(("value-out-of-range", f"value {v!r} is not a number"))
    elif not 0.0 <= v <= 1.0:
        out.append(("value-out-of-range", f"value {v!r} outside [0, 1]"))
    return out


def validate_items(items: Sequence[Item] | Instance, spec: ConstraintSpec) -> tuple[Violation, ...]:
    """Check a bag of real items against a spec; empty result means valid.

    This is the one item rule set; every entry point that reads items runs
    it (through ``require_valid``).  Reported kinds: duplicate-id, dummy-id,
    empty-props, unknown-property (an index that is not an int, a bool, or
    one outside 0..d-1) and value-out-of-range (NaN and infinities
    included, and a value that is not a number or is a bool).  Dummies are
    not real items, so a dummy passed here is reported as dummy-id.  A
    sampled instance checked against a spec with at least its
    distribution's d is valid by construction and returns () at once.

    The rules run on the instance's columns: numpy flags the items and
    entries that may break a rule, and only those are looked at one by
    one.  Findings come item by item, each item's in the order of the rules
    above and of its properties.
    """
    inst = items if isinstance(items, Instance) else Instance(items)
    if _valid_by_construction(inst, spec):
        return ()
    return _item_rules(inst, spec)


def _valid_by_construction(inst: Instance, spec: ConstraintSpec) -> bool:
    """True for a sampled instance, while its arrays are read-only, and a
    spec with at least its distribution's d: its ids are positions, and
    each row owns a property below that d, with a value in [0, 1]."""
    d = inst._sampled_d
    return (
        d is not None
        and spec.d >= d
        and not inst.ids.flags.writeable
        and not inst._values.flags.writeable
    )


def _item_rules(inst: Instance, spec: ConstraintSpec) -> tuple[Violation, ...]:
    """The full pass of ``validate_items``' rules over ``inst``."""
    d, n, ids = spec.d, inst.n, inst.ids
    rows, props, vals, odd = inst.entries()
    duplicate = np.zeros(n, dtype=bool)
    if not (ids[1:] > ids[:-1]).all():
        duplicate[:] = True
        duplicate[np.unique(ids, return_index=True)[1]] = False
    dummy = ids >= DUMMY_ID_BASE
    empty = np.ones(n, dtype=bool)
    empty[rows] = False
    bad_item = duplicate | dummy | empty
    suspect = (props < 0) | (props >= d) | ~((vals >= 0.0) & (vals <= 1.0))
    if odd:
        suspect[list(odd)] = True
    if not bad_item.any() and not suspect.any():
        return ()

    # the flagged entries of each flagged item, in entry order
    by_row: dict[int, list[int]] = {r: [] for r in np.flatnonzero(bad_item).tolist()}
    flagged = np.flatnonzero(suspect).tolist()
    for e, r in zip(flagged, rows[flagged].tolist()):
        by_row.setdefault(r, []).append(e)
    out: list[Violation] = []
    for r in sorted(by_row):
        i, where = int(ids[r]), inst.where(r)
        if duplicate[r]:
            out.append(Violation("duplicate-id", i, f"id {i} appears more than once", where))
        if dummy[r]:
            out.append(Violation("dummy-id", i, f"id {i} lies in the reserved dummy range", where))
        if empty[r]:
            out.append(Violation("empty-props", i, "item possesses no property", where))
        for e in by_row[r]:
            p, v = odd[e] if e in odd else (int(props[e]), float(vals[e]))
            out += [Violation(kind, i, detail, where) for kind, detail in _pair_rules(p, v, d)]
    return tuple(out)


def validate_instance(inst: Instance, spec: ConstraintSpec) -> tuple[Violation, ...]:
    """``validate_items`` plus the stream rule that ids equal positions."""
    if _valid_by_construction(inst, spec):
        return ()
    out = list(_item_rules(inst, spec))
    moved = np.flatnonzero(inst.ids != np.arange(inst.n)).tolist()
    for pos, i in zip(moved, inst.ids[moved].tolist()):
        detail = f"id {i} at position {pos}"
        out.append(Violation("id-position-mismatch", i, detail, inst.where(pos)))
    return tuple(out)


def require_valid(violations: Sequence[Violation], what: str) -> None:
    """Raise ``InputError`` naming the count and the first of nonempty ``violations``."""
    if violations:
        first = violations[0]
        where = f"{first.where}: " if first.where else ""
        raise InputError(
            f"invalid {what}: {len(violations)} violation(s), first is {first.kind}"
            f" at item {first.item_id} ({where}{first.detail})"
        )


def write_instance(inst: Instance, fh: IO[str]) -> None:
    """One JSON object per line: {"id": ..., "props": [[p, v], ...]}, pairs
    in ascending property order and values as ".17g".

    The file is formatted in one pass: one printf template per record, by
    its pair count, joined and applied once to the interleaved (id,
    property, value, ...) fields.  ``%.17g`` is ``format(v, ".17g")``.
    """
    rows, props, vals, _ = inst.entries()
    # lexsort is stable, so entries already in (row, property) order keep it
    if not ((rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (props[1:] >= props[:-1]))).all():
        order = np.lexsort((props, rows))
        rows, props, vals = rows[order], props[order], vals[order]
    counts = np.bincount(rows, minlength=inst.n)
    # in text order: each record's id, then its pairs' properties and values
    fields = np.empty(inst.n + 2 * len(rows), dtype=object)
    at_id = np.arange(inst.n) + 2 * (np.cumsum(counts) - counts)
    at_pair = rows + 1 + 2 * np.arange(len(rows))
    fields[at_id] = inst.ids
    fields[at_pair] = props
    fields[at_pair + 1] = vals
    template = {
        c: '{"id": %d, "props": [' + ", ".join(["[%d, %.17g]"] * c) + "]}\n"
        for c in np.unique(counts).tolist()
    }
    text = "".join(map(template.__getitem__, counts.tolist())) % tuple(fields.tolist())
    # ".17g" round-trips every double, but JSON reads "-0" as the integer 0
    fh.write(text.replace(", -0]", ", -0.0]") if np.signbit(vals).any() else text)


def _writer_form(atomic: bytes) -> re.Pattern:
    """A file's bytes exactly as ``write_instance`` writes them.

    The pattern exists so that such a file can be read in bulk: every
    literal it admits reads the same through numpy's parse as through
    ``json.loads``.  It takes ids and indices of at most 15 digits (exact
    as doubles), values with no sign but the writer's "-0.0" (JSON reads
    "-0" as the integer 0) and digit runs and exponents too short to
    overflow.  ``atomic=b"+"`` makes the quantifiers possessive (Python
    3.11+), so the match never backtracks; ``b""`` gives the same verdict,
    about five times slower.
    """
    a = atomic
    int_ = rb"(?:0|[1-9][0-9]{0,14}%b)" % a
    num = rb"(?:-0\.0|(?:0|[1-9][0-9]{0,16}%b)(?:\.[0-9]{1,20}%b)?%b" % (a, a, a)
    num += rb"(?:e(?:-[0-9]{2,3}%b|\+[0-9]{2}))?%b)" % (a, a)
    pair = rb"\[%b, %b\]" % (int_, num)
    return re.compile(
        rb'(?:\{"id": %b, "props": \[(?:%b(?:, %b)*%b)?%b\]\}\n)*%b' % (int_, pair, pair, a, a, a)
    )


_WRITER_FORM = _writer_form(b"+" if sys.version_info >= (3, 11) else b"")
# every byte that is no part of a number becomes a separator
_NUMBER_BYTES = bytes(b if chr(b) in "0123456789.e+-" else 32 for b in range(256))


def _ids_are_positions(buf: np.ndarray, starts: np.ndarray, text: np.ndarray) -> bool:
    """Whether the digit run at ``starts[i]`` in ``buf`` spells i, for each
    i; the digits are blanked in ``text``.  Every id of one length is
    checked at once, through a window of that length over the bytes."""
    n = len(starts)
    if n == 0:  # a window wider than the buffer is refused
        return True
    for width in range(1, len(str(n - 1)) + 1):
        first = 10 ** (width - 1) if width > 1 else 0
        stop = min(n, 10**width)
        at = starts[first:stop]
        digits = sliding_window_view(buf, width)[at] - ord("0")
        if (digits >= 10).any() or (buf[at + width] - ord("0") < 10).any():
            return False
        if ((digits @ 10 ** np.arange(width - 1, -1, -1)) != np.arange(first, stop)).any():
            return False
        sliding_window_view(text, width, writeable=True)[at] = ord(" ")
    return True


def _take_integers(buf: np.ndarray, starts: np.ndarray, text: np.ndarray) -> np.ndarray:
    """The integers whose ASCII digits begin at ``starts`` in ``buf``, each
    run ended by a non-digit; their digits are blanked in ``text``."""
    out = np.zeros(len(starts), dtype=np.int64)
    live = np.arange(len(starts))
    at = starts
    while len(live):
        digit = buf[at] - ord("0")
        more = digit < 10  # unsigned: every non-digit byte wraps past 9
        live, at = live[more], at[more]
        out[live] = out[live] * 10 + digit[more]
        text[at] = ord(" ")
        at = at + 1
    return out


def _parse_values(literals: np.ndarray) -> np.ndarray:
    """The doubles that ``float()`` reads from the space-separated number
    literals in the bytes ``literals``, which become read-only.

    Each literal is parsed once, at long-double width, and narrowed.  That
    is exact, with one exception: every midpoint between two adjacent
    doubles is a long double, so rounding to 64 bits can land on one but
    never cross one.  A wide value w that lands on a midpoint is read again
    with ``float()``; the test is 2(|w| - |x|) = ± the gap between |x| and
    its neighbour on w's side, for the narrowed x.  Where ``np.longdouble``
    is ``float64``, w = x and nothing is read again.  This assumes numpy's
    long-double text parse rounds correctly, as glibc's ``strtold`` does.
    """
    literals.flags.writeable = False
    wide = np.fromstring(literals, dtype=np.longdouble, sep=" ")
    vals = wide.astype(np.float64)
    mag = np.abs(vals)
    off = (np.abs(wide) - mag) * 2
    tie = np.flatnonzero((off == np.spacing(mag)) | (off == -np.spacing(np.nextafter(mag, 0))))
    if len(tie):
        words = literals.tobytes().split()
        vals[tie] = [float(words[i]) for i in tie.tolist()]
    return vals


def _read_writer_form(data: bytes) -> tuple | None:
    """(n, entries, line numbers) of a file in the writer's form, parsed in
    bulk on its bytes with no object per record; None for any other file.

    ``data`` is the file's bytes, each line ended by LF.  Ids and property
    indices are read from their digits (the form caps them at 15, which
    int64 holds exactly), and their digits are blanked, so the float parse
    sees only the value literals.
    """
    if _WRITER_FORM.fullmatch(data) is None:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    n = len(ends)
    # each id follows its line's '{"id": '; each pair opens with "[" and a digit
    id_at = np.concatenate(([0], ends[:-1] + 1))[:n] + len('{"id": ')
    opened = np.flatnonzero(buf == ord("[")) + 1
    pair_at = opened[buf[opened] - ord("0") < 10]
    literals = np.frombuffer(bytearray(data.translate(_NUMBER_BYTES)), dtype=np.uint8)
    if not _ids_are_positions(buf, id_at, literals):
        return None
    props = _take_integers(buf, pair_at, literals)
    rows = np.searchsorted(ends, pair_at)
    if not ((props[1:] > props[:-1]) | (rows[1:] != rows[:-1])).all():
        return None
    # numpy reads a blank text as one number, -1
    vals = _parse_values(literals) if len(props) else np.empty(0)
    return n, (rows, props, vals, {}), np.arange(1, n + 1)


def _read_lines(text: str, source: str) -> tuple[int, tuple, np.ndarray]:
    """(n, entries, line numbers) of any file, one JSON record per line;
    errors name the offending line."""
    counts: list[int] = []
    lines: list[int] = []
    props: list[int] = []
    vals: list[float] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            item_id = obj["id"]
            prop_pairs = obj["props"]
            for p, v in prop_pairs:
                # JSON numbers are taken as they are: no bool, string or rounding
                if type(p) is not int:
                    raise TypeError(f"property {p!r} is not an integer")
                if type(v) is not float and type(v) is not int:
                    raise TypeError(f"value {v!r} is not a number")
                props.append(p)
                vals.append(v)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise InputError(f"{source}:{lineno}: malformed item record ({_why(exc)})") from exc
        if len(prop_pairs) > 1 and len({p for p, _ in prop_pairs}) != len(prop_pairs):
            raise InputError(f"{source}:{lineno}: item record lists a property more than once")
        if type(item_id) is not int:
            raise InputError(f"{source}:{lineno}: item id must be an integer")
        if item_id != len(counts):
            raise InputError(
                f"{source}:{lineno}: item id {item_id} does not equal its position {len(counts)}"
            )
        counts.append(len(prop_pairs))
        lines.append(lineno)
    n = len(counts)
    rows = np.repeat(np.arange(n), counts)
    try:
        entries = (rows, np.array(props, dtype=np.int64), np.array(vals, dtype=np.float64), {})
    except OverflowError:
        entries = _odd_entries(rows.tolist(), props, vals)
    return n, entries, np.array(lines, dtype=np.int64)


def _why(exc: Exception) -> str:
    """The reason a JSON record was refused: a ``KeyError`` names its key."""
    return f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def read_instance(fh: IO[bytes] | IO[str], source: str = "<instance>") -> Instance:
    """Parse a JSON Lines instance file; errors name the offending line.

    ``fh`` is a binary handle, as the CLI opens instance files, or a text
    one; either is read whole.  A file in exactly the form
    ``write_instance`` writes is parsed in bulk on its bytes: ids and
    property indices from their digits, and the values by one numpy parse
    (``_parse_values``).  Any other file goes line by line through
    ``json.loads``.  Both give the same instance.  Bytes are read as text
    mode reads them: CRLF and a lone CR end a line, and a byte that is not
    UTF-8 raises ``UnicodeDecodeError`` on the bytes as read.
    """
    data = fh.read()
    if isinstance(data, str):  # a text handle has ended its lines already
        found = _read_writer_form(data.encode("ascii")) if data.isascii() else None
        text = data
    else:
        ended = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data
        found = _read_writer_form(ended)
        # decoded as read, so a bad byte's offset counts in the file's own bytes
        text = None if found else data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    n, entries, lines = found or _read_lines(text, source)
    inst = Instance.__new__(Instance)
    inst._init(np.arange(n), entries=entries, lines=lines, source=source)
    return inst


def write_constraint_spec(spec: ConstraintSpec, fh: IO[str]) -> None:
    _write_json({"caps": list(spec.caps)}, fh)


def _write_json(obj, fh: IO[str]) -> None:
    """``obj`` as one JSON line, keys sorted; ``_read_json`` reads it back."""
    fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_json(fh: IO[str], source: str, what: str, build):
    """``build(obj)`` on the one JSON document in ``fh``.  Its ``ConfigError``
    becomes ``InputError("source: reason")``; a parse, key, type, value, float-range
    or nesting-depth error becomes ``InputError("source: malformed what (...)")``."""
    # a bad byte raises here, outside the catch, so the caller can name its line
    text = fh.read()
    try:
        return build(json.loads(text))
    except ConfigError as exc:
        raise InputError(f"{source}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise InputError(f"{source}: malformed {what} ({_why(exc)})") from exc


def read_constraint_spec(fh: IO[str], source: str = "<spec>") -> ConstraintSpec:
    def build(obj) -> ConstraintSpec:
        caps = tuple(obj["caps"])
        if any(type(c) is not int for c in caps):
            raise TypeError(f"caps must be integers, got {obj['caps']!r}")
        return ConstraintSpec(caps)

    return _read_json(fh, source, "constraint spec", build)


def write_distribution_spec(dist: DistributionSpec, fh: IO[str]) -> None:
    obj: dict = {"kind": dist.kind, "d": dist.d}
    if dist.membership is not None:
        obj["membership"] = list(dist.membership)
    _write_json(obj, fh)


def read_distribution_spec(fh: IO[str], source: str = "<dist>") -> DistributionSpec:
    def build(obj) -> DistributionSpec:
        kind = obj["kind"]
        d = obj["d"]
        if type(d) is not int:
            raise TypeError(f"d must be an integer, got {d!r}")
        membership = obj.get("membership")
        if membership is not None:
            if any(type(q) is not float and type(q) is not int for q in membership):
                raise TypeError(f"membership must be numbers, got {membership!r}")
            membership = tuple(float(q) for q in membership)
        return DistributionSpec(kind, d, membership)

    return _read_json(fh, source, "distribution spec", build)
