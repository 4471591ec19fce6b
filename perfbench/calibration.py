"""A fixed probe of host speed, run between the benchmark's ops.

The machine the benchmark was tuned on drifts: a fixed loop of Python
or numpy work ran ±5–8% slower or faster from one 10 s window to the
next, and now and then about 30% faster for a whole window.  The probe
is a small piece of work of the same kinds the workloads do — a
dictionary-and-heap shortest-path search and numpy bincount/minimum
passes over a few thousand values — written here, so no change to the
program moves it.  :func:`host_factor` turns the median probe time of a
run into the host's speed relative to the reference machine, and op
times are divided by it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

#: Median probe time on the reference machine (2-core x86 VM, Python
#: 3.11, numpy 2.4); times are reported at that machine's speed.
REFERENCE_PROBE_S = 0.00115

_NODES = 300
_GRAPH: Dict[int, Dict[int, int]] = {
    u: {(u * 7 + k) % _NODES: 1 + (u * k) % 5 for k in range(1, 5)}
    for u in range(_NODES)}
_VALUES = np.random.default_rng(0).random(3200)
_GROUPS = np.random.default_rng(1).integers(0, 40, 3200)


def probe() -> float:
    """Host seconds for one pass of the fixed probe work."""
    start = time.perf_counter()
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, weight in _GRAPH[u].items():
            if d + weight < dist.get(v, 1 << 60):
                dist[v] = d + weight
                heapq.heappush(heap, (d + weight, v))
    x = _VALUES
    for _ in range(20):
        y = np.bincount(_GROUPS, weights=x, minlength=40)
        x = np.minimum(x * 1.0001, 2.0) + y[_GROUPS] * 1e-9
    return time.perf_counter() - start


def probes_for(seconds: float, every_s: float = 0.1) -> List[float]:
    """One probe per ``every_s`` of op time just measured (at least one),
    so the probes sample the host across the whole run."""
    return [probe() for _ in range(max(1, round(seconds / every_s)))]


def host_factor(probes: Sequence[float]) -> float:
    """Median probe time over the reference: below 1 on a faster host."""
    return statistics.median(probes) / REFERENCE_PROBE_S
