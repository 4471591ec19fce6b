"""Spans around the program's layer boundaries, recorded from outside.

:class:`SpanRecorder` wraps public entry points of ``repro`` for the
length of a ``with recorder.installed():`` block and restores the
originals afterwards; no file of the program changes.  Every call into
a wrapped function records one span — name, start, end, parent span
and the benchmark op it belongs to — in memory, and :meth:`dump`
writes them to JSON when the run ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pathlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, owner, attribute, span name)``.  ``owner`` is a class in
#: ``module`` or None for a module-level function.  Functions another
#: module imported by name are wrapped where that module looks them up;
#: the workloads call ``repro.experiment.run_experiment`` and
#: ``repro.workloads.traffic_matrix`` through their modules for this.
PATCHES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.netsim.topology", "Topology", "path", "netsim.topology.path"),
    ("repro.netsim.topology", "Topology", "profile_between",
     "netsim.topology.profile_between"),
    ("repro.netsim.engine", "Simulator", "step", "netsim.engine"),
    ("repro.experiment.registry", None, "build_design",
     "core.designs.build"),
    ("repro.scenario", "Scenario", "from_spec", "scenario.from_spec"),
    ("repro.scenario", "Scenario", "run", "scenario.run"),
    ("repro.perfsonar.owamp", "OwampProbe", "run", "perfsonar.owamp"),
    ("repro.perfsonar.bwctl", "BwctlTest", "run", "perfsonar.bwctl"),
    ("repro.tcp.connection", "TcpConnection", "measure",
     "tcp.connection.measure"),
    ("repro.dtn.transfer", "TransferPlan", "execute", "dtn.transfer"),
    ("repro.chaos.runner", None, "sample_schedules", "chaos.sample"),
    ("repro.chaos.runner", None, "evaluate_oracles",
     "chaos.oracles.evaluate"),
    ("repro.tcp.simulate", "MultiFlowSimulation", "__init__",
     "tcp.simulate.init"),
    ("repro.tcp.simulate", "MultiFlowSimulation", "run", "tcp.simulate.run"),
    # The exact and fluid kernels call the allocator's kernel directly,
    # not the public max_min_fair_allocation wrapper.
    ("repro.tcp.simulate", "_ProgressiveFiller", "_allocate_numpy",
     "tcp.simulate.maxmin"),
    ("repro.fluid", None, "build_flow_classes", "fluid.build_classes"),
    ("repro.fluid.engine", "FluidEngine", "run", "fluid.run"),
    ("repro.workloads", None, "traffic_matrix", "workloads.traffic_matrix"),
    ("repro.experiment", None, "run_experiment",
     "experiment.run_experiment"),
    ("repro.exec.runner", "ParallelRunner", "map", "exec.runner.map"),
    ("repro.experiment.spec", "ExperimentSpec", "from_json",
     "experiment.spec.from_json"),
    ("repro.exec.cache", "ResultCache", "load", "exec.cache.get"),
    ("repro.exec.cache", "ResultCache", "store", "exec.cache.put"),
    ("repro.analysis.sweep", None, "sweep", "analysis.sweep"),
)

#: Span tuple fields, in order.
FIELDS = ("name", "start", "end", "parent", "op")


class SpanRecorder:
    """In-memory spans for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Id of the benchmark op the next spans belong to (0 = set-up).
        self.op = 0

    # -- recording --------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every entry point in :data:`PATCHES` for the block."""
        from repro.experiment.runner import register_spec_runner
        from repro.federation.runner import run_federation

        restore: List[Tuple[object, str, object]] = []
        # The federation kind reaches run_experiment through the
        # spec-runner registry, so it is re-registered, not patched.
        register_spec_runner("federation",
                             self.wrap("federation.run", run_federation))
        try:
            for module_name, owner_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                owner = (module if owner_name is None
                         else getattr(module, owner_name))
                raw = owner.__dict__.get(attr)
                if raw is None:
                    print(f"trace: {module_name}.{owner_name or ''}"
                          f".{attr} not found; {name} is not traced")
                    continue
                restore.append((owner, attr, raw))
                setattr(owner, attr, self._wrap_raw(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)
            register_spec_runner("federation", run_federation)

    def _wrap_raw(self, name: str, raw: object) -> object:
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(name, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self.wrap(name, raw.__func__))
        return self.wrap(name, raw)

    # -- analysis ---------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (outermost spans of the
        name only, so recursion is not counted twice) and ``self_s``."""
        spans = self.spans
        children: Dict[int, List[int]] = {}
        for i, s in enumerate(spans):
            if s[3] is not None:
                children.setdefault(s[3], []).append(i)
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, parent, _op) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            duration = end - start
            row["self_s"] += duration - _covered(
                [(spans[c][1], spans[c][2]) for c in children.get(i, ())],
                start, end)
            if not _has_ancestor(spans, parent, name):
                row["busy_s"] += duration
        return out

    def covered_by(self, names: Tuple[str, ...]) -> float:
        """Seconds covered by the outermost spans whose name is in
        ``names``."""
        spans = self.spans
        return sum(end - start
                   for name, start, end, parent, _op in spans
                   if name in names
                   and not any(_has_ancestor(spans, parent, n)
                               for n in names))

    def dump(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": list(FIELDS), "spans": self.spans}, handle)


def _has_ancestor(spans: List[list], parent, name: str) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
