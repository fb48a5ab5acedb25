"""In-memory span tracing of screenmatch's public functions.

A ``Tracer`` wraps chosen functions of the ``screenmatch`` modules and
records one span per call: name, start, end, parent span and the trial
index shared by the spans of one trial.  ``from .core import ...`` binds a
function under its name in every importing module, so ``install`` rebinds
the name wherever the original object is bound, and ``uninstall`` puts
every original back.  Spans stay in memory until ``write_spans``.

Timed runs never install a tracer; only the separate traced run does.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ORIGINAL_ATTR = "__perfbench_original__"

# Span names are "<layer>.<function>"; the layer is the screenmatch module.
LAYERS = ("core", "matching", "greedy", "thresholds", "pipeline", "experiments", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    trial: int | None
    pass_index: int


# ---------------------------------------------------------------------------
# counters attached to wrapped calls: (before hook, after hook)


def _count_items_sampled(tr, args, kwargs, result, _token):
    tr.counters["core.items_sampled"] += result.n


def _count_items_validated(tr, args, kwargs, result, _token):
    tr.counters["core.items_validated"] += len(args[0])


def _count_items_read(tr, args, kwargs, result, _token):
    tr.counters["core.items_read"] += result.n


def _tell(fh):
    try:
        return fh.tell()
    except (OSError, ValueError):
        return None


def _before_write(tr, args, kwargs):
    return _tell(args[1])


def _count_bytes_written(tr, args, kwargs, result, before):
    after = _tell(args[1])
    if before is not None and after is not None:
        tr.counters["core.bytes_written"] += after - before


def _count_solve(tr, args, kwargs, result, _token):
    tr.counters["matching.items"] += len(args[0])
    if args[1].d > 1:
        tr.counters["matching.flow_calls"] += 1


def _count_screen_entries(tr, args, kwargs, result, _token):
    entries, warmup = args[0], args[2]
    tr.counters["greedy.arrivals_after_warmup"] += sum(1 for pos, _ in entries if pos >= warmup)
    tr.counters["greedy.kept"] += len(result[0])


def _count_survivors(tr, args, kwargs, result, _token):
    tr.counters["pipeline.survivors"] += result.retained_after_policy
    tr.counters["pipeline.stream_items"] += args[1].n


def _count_block(tr, args, kwargs, result, _token):
    tr.counters["experiments.blocks"] += 1


def _set_trial(tr, args, kwargs, result, _token):
    # every per-trial sub-seed is derived as derive_seed(seed, label, trial)
    tr.trial = args[2] if len(args) > 2 else kwargs.get("index", 0)


@dataclass(frozen=True, slots=True)
class Target:
    module: str
    name: str
    span: bool = True  # False: run the hooks only, record no span
    root: bool = False  # a root call starts outside any trial
    before: object = None
    after: object = None


TARGETS = (
    Target("core", "sample_instance", after=_count_items_sampled),
    Target("core", "validate_instance", after=_count_items_validated),
    Target("core", "read_instance", after=_count_items_read),
    Target("core", "write_instance", before=_before_write, after=_count_bytes_written),
    Target("core", "derive_seed", span=False, after=_set_trial),
    Target("matching", "optimal_matching", after=_count_solve),
    Target("matching", "exact_solution_value"),
    Target("greedy", "greedy_screen"),
    Target("greedy", "screen_entries", after=_count_screen_entries),
    Target("thresholds", "screen_with_policy"),
    Target("thresholds", "learn_topm_thresholds"),
    Target("thresholds", "learn_optimal_thresholds"),
    Target("pipeline", "run_pipeline", after=_count_survivors),
    Target("experiments", "run_trials", root=True),
    Target("experiments", "_trial_block", span=False, after=_count_block),
)


def program_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "screenmatch" or name.startswith("screenmatch."))
    ]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: defaultdict = field(default_factory=lambda: defaultdict(float))
    trial: int | None = None
    pass_index: int = 0
    _stack: list[int] = field(default_factory=list)
    _rebound: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.trial, self.pass_index))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        """A span opened by the benchmark's own code (e.g. one CLI command)."""
        saved = self.trial
        self.trial = trial
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.trial = saved

    def _wrap(self, target: Target, fn):
        name = f"{target.module}.{target.name}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = target.before(tracer, args, kwargs) if target.before else None
            if target.root:
                tracer.trial = None
            idx = tracer._open(name) if target.span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer._close(idx)
                if target.root:
                    tracer.trial = None
            if target.after:
                target.after(tracer, args, kwargs, result, token)
            return result

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    def install(self) -> None:
        """Rebind every target name in every screenmatch module."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = program_modules()
        by_name = {m.__name__: m for m in modules}
        try:
            for target in TARGETS:
                home = by_name.get(f"screenmatch.{target.module}")
                fn = getattr(home, target.name, None) if home is not None else None
                if fn is None:
                    raise RuntimeError(f"screenmatch.{target.module}.{target.name} not found")
                wrapper = self._wrap(target, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._rebound):
            setattr(mod, attr, fn)
        self._rebound.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def wrapped_names() -> list[str]:
    """Names in screenmatch modules still bound to a tracer wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in program_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, ORIGINAL_ATTR)
    ]


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_name(spans: list[Span], selfs: list[float]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and durations."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        row["durations"].append(s.end - s.start)
    return out


def layer_self(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, selfs):
        out[layer_of(s.name)] = out.get(layer_of(s.name), 0.0) + own
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def write_spans(path, spans: list[Span], t0: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": s.name,
                        "start": s.start - t0,
                        "end": s.end - t0,
                        "parent": s.parent,
                        "trial": s.trial,
                        "pass": s.pass_index,
                    }
                )
                + "\n"
            )
