"""Host speed: a fixed kernel timed around every measured call.

The 2-core shared host this benchmark was tuned on runs the same code at
two or more speeds, up to 1.7x apart, that switch every few seconds as
other tenants come and go.  A plain wall time follows those switches; a
run of 24 s sees a different mix of them each time.

So every measured call is bracketed by two runs of a fixed pure-Python
kernel that never touches screenmatch.  The call's wall time is scaled by
``NOMINAL_S`` over the mean of the two kernel times: the *scaled* time is
the time the call would take on a host where the kernel takes
``NOMINAL_S``.  In a 150 s trace of four kinds of calls (Item sampling,
flow solves, JSONL parsing, numpy kernels) the medians of 15 s windows
spread by 20-50% in wall time and by 2-8% in scaled time.  The kernel is
interpreter-bound, like the benchmark's workloads; calls dominated by numpy
array work slow down by other factors and are not tracked as well.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import random
import time
from dataclasses import dataclass

# the kernel's time on the fast spells of a 2-vCPU Xeon host; only the
# ratio matters, this just keeps scaled times close to wall times
NOMINAL_S = 0.005
_KERNEL_N = 3000


class _Rec:
    __slots__ = ("key", "value", "tag")

    def __init__(self, key, value, tag):
        self.key = key
        self.value = value
        self.tag = tag


def _kernel() -> int:
    """Object creation, dict updates, a heap, a keyed sort and JSON text:
    the kinds of work screenmatch spends its time on."""
    rng = random.Random(7)
    recs = [_Rec(i, rng.random(), (i % 3, i % 7)) for i in range(_KERNEL_N)]
    totals: dict = {}
    for r in recs:
        totals[r.tag] = totals.get(r.tag, 0.0) + r.value * 1.5
    heap: list = []
    for r in recs:
        if len(heap) < 50:
            heapq.heappush(heap, (r.value, r.key))
        elif r.value > heap[0][0]:
            heapq.heapreplace(heap, (r.value, r.key))
    ordered = sorted(recs, key=lambda r: (r.value, r.key))
    text = json.dumps([[r.key, r.value] for r in ordered[:500]])
    return len(totals) + len(json.loads(text)) + len(heap)


def reference_s() -> float:
    """Wall time of one run of the kernel, with the garbage collector off so
    that the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    wall: float = 0.0
    scaled: float = 0.0
    reference: float = 0.0  # mean kernel time around the call


@contextlib.contextmanager
def timed():
    """Time the body in wall time and in scaled time (see the module doc)."""
    t = Timing()
    before = reference_s()
    t0 = time.perf_counter()
    try:
        yield t
    finally:
        t.wall = time.perf_counter() - t0
        t.reference = (before + reference_s()) / 2
        t.scaled = t.wall * NOMINAL_S / t.reference
