"""Metric names, units and directions, and the statistics behind them.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
set: ``run.py --describe`` prints them and the benchmark's tests check
that ``BENCHMARK.json`` lists the same names, units and directions.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression (None: per-layer).
    bound: Optional[float] = None


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_tail_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    # Share of attempted ops whose correctness check passed.  The
    # failure share itself is 0 on a healthy program, and a metric that
    # reads 0 has no relative spread, so the benchmark gates on its
    # complement; the raw counts are the result line's attempted/failed.
    Metric("ok_frac", "fraction", "higher", 0.001),
    Metric("fluid_err", "fraction", "lower", 0.25),
)


def _calls_busy(prefix: str) -> Tuple[Metric, ...]:
    return (Metric(f"{prefix}.calls", "count", "lower"),
            Metric(f"{prefix}.busy_s", "s", "lower"))


def _calls_self(prefix: str) -> Tuple[Metric, ...]:
    return (Metric(f"{prefix}.calls", "count", "lower"),
            Metric(f"{prefix}.self_s", "s", "lower"))


PER_LAYER: Tuple[Metric, ...] = (
    Metric("import.repro_s", "s", "lower"),
    Metric("import.networkx_s", "s", "lower"),
    Metric("import.numpy_s", "s", "lower"),
    *_calls_busy("netsim.topology.path"),
    *_calls_self("netsim.topology.profile_between"),
    # Share of traced op time spent inside routing and path profiling.
    Metric("netsim.topology.share", "fraction", "lower"),
    Metric("netsim.engine.events", "count", "lower"),
    Metric("netsim.engine.self_s", "s", "lower"),
    *_calls_busy("core.designs.build"),
    Metric("scenario.from_spec.busy_s", "s", "lower"),
    Metric("scenario.run.busy_s", "s", "lower"),
    *_calls_self("perfsonar.owamp"),
    *_calls_self("perfsonar.bwctl"),
    *_calls_self("tcp.connection.measure"),
    *_calls_self("dtn.transfer"),
    Metric("chaos.sample.busy_s", "s", "lower"),
    *_calls_busy("chaos.oracles.evaluate"),
    Metric("tcp.simulate.init.busy_s", "s", "lower"),
    Metric("tcp.simulate.run.busy_s", "s", "lower"),
    Metric("tcp.simulate.stream_ticks", "count", "lower"),
    Metric("tcp.simulate.ns_per_stream_tick", "ns", "lower"),
    *_calls_busy("tcp.simulate.maxmin"),
    Metric("fluid.run.busy_s", "s", "lower"),
    Metric("fluid.ticks", "count", "lower"),
    Metric("fluid.classes", "count", "lower"),
    Metric("fluid.classes_retired", "count", "higher"),
    Metric("fluid.ns_per_class_tick", "ns", "lower"),
    Metric("fluid.build_classes.busy_s", "s", "lower"),
    Metric("engine.exact_ops", "count", "higher"),
    Metric("engine.fluid_ops", "count", "higher"),
    Metric("workloads.traffic_matrix.busy_s", "s", "lower"),
    Metric("exec.runner.map.self_s", "s", "lower"),
    Metric("experiment.run_experiment.self_s", "s", "lower"),
    Metric("experiment.spec.from_json.busy_s", "s", "lower"),
    *_calls_busy("exec.cache.get"),
    *_calls_busy("exec.cache.put"),
    Metric("exec.cache.hit_ratio", "fraction", "higher"),
    Metric("federation.run.busy_s", "s", "lower"),
    Metric("analysis.sweep.busy_s", "s", "lower"),
    Metric("trace.overhead_frac", "fraction", "lower"),
)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(value, percentile, n)`` for the highest percentile of
    ``samples`` that has at least :data:`TAIL_BEYOND` samples beyond it,
    or None when there are too few samples for a tail.

    With ``n`` sorted samples the value is the one with exactly ten
    samples above it, which sits at percentile ``100 * (n - 10) / n``.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def windowed_rate(durations: Sequence[float], window_s: float) -> float:
    """Ops per second of op time: the median over consecutive windows
    that each hold at least ``window_s`` of op time (a remainder shorter
    than a window is left out).  A median over windows keeps a burst of
    faster or slower host time that covers less than half the run from
    moving the rate; with no full window the whole run is one window."""
    rates: List[float] = []
    count, total = 0, 0.0
    for duration in durations:
        count += 1
        total += duration
        if total >= window_s:
            rates.append(count / total)
            count, total = 0, 0.0
    return statistics.median(rates) if rates else count / total


def result_line(metrics: Dict[str, float], selected: Sequence[Metric], *,
                attempted: int, failed: int) -> Dict[str, object]:
    """The benchmark's last output line, with every ``selected`` metric."""
    missing = [m.name for m in selected if m.name not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m.name: {"value": float(metrics[m.name]), "unit": m.unit}
                    for m in selected},
    }


def describe() -> List[str]:
    """One line per metric: name, unit, better-direction and bound."""
    lines = []
    for scope, group in (("end_to_end", END_TO_END),
                         ("per_layer", PER_LAYER)):
        for m in group:
            bound = "" if m.bound is None else f"  bound {m.bound:g}"
            lines.append(f"{scope:<10}  {m.name:<36} {m.unit:<9} "
                         f"{m.better}{bound}")
    return lines
