"""Reference kernel: fixed pure-Python work that calibrates timings.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within minutes (steal time).  CPU time tracks wall time there,
so neither fixes it.  Instead, every closed-loop timed call is preceded
and followed by one run of this kernel, and the call's time is reported
at a nominal reference speed::

    normalized_ms = raw_ms * NOMINAL_REF_MS / mean(reference before, after)

The kernel does the same kind of work as the scheduler (dict and list
building, a heap, a topological sort over a DAG) and imports nothing from
the program under test, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: The kernel's time, in ms, on the machine the benchmark was calibrated
#: on (2-vCPU VM, Python 3.11).  Only a unit: a different value rescales
#: every normalized timing by the same factor.
NOMINAL_REF_MS = 5.0

_NODES = 1300
_FANOUT = 4


def _dag() -> list[tuple[int, int]]:
    """A fixed random DAG from a linear congruential generator."""
    edges = []
    x = 12345
    for v in range(1, _NODES):
        for _ in range(_FANOUT):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            u = x % v
            edges.append((u, v))
    return edges


_EDGES = _dag()


def kernel() -> int:
    """One unit of reference work; returns a checksum so the work cannot
    be skipped."""
    succ: dict[int, list[int]] = {}
    indeg: dict[int, int] = {v: 0 for v in range(_NODES)}
    for u, v in _EDGES:
        succ.setdefault(u, []).append(v)
        indeg[v] += 1
    ready = [(-(v * 7919 % 101), v) for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, u = heapq.heappop(ready)
        order.append(u)
        for v in succ.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, (-(v * 7919 % 101), v))
    depth = {v: 0 for v in order}
    for u in order:
        for v in succ.get(u, ()):
            if depth[v] < depth[u] + 1:
                depth[v] = depth[u] + 1
    return sum(order[::7]) + max(depth.values())


def sample_ms() -> float:
    """Time one kernel run, with the garbage collector paused for the
    kernel only (restored to its previous state afterwards)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        elapsed = time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
    return elapsed / 1e6


class Calibrator:
    """Reference samples bracketing timed calls.

    The host's speed changes within a fraction of a second, so a call is
    normalized by the mean of the sample taken just before it and the one
    taken just after it (the next call's "before" sample, or a closing
    sample)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take one reference sample; returns its index."""
        self.samples.append(sample_ms())
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Nominal over measured reference speed around the call that
        followed sample ``index``."""
        around = self.samples[index:index + 2]
        return NOMINAL_REF_MS / (sum(around) / len(around))

    def median_ms(self) -> float:
        return statistics.median(self.samples)
