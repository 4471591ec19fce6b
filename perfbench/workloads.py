"""The benchmark's workloads: seeded inputs, the op, and its check.

Every workload is a closed loop with one client: the next op starts
only when the previous one has returned, in one process, serially
(``workers=1``, no pool, no threads).  A workload's :meth:`batch` runs
a few ops and returns one :class:`OpRecord` per op; an op that raises
or fails its check is recorded as failed and the run goes on.

Inputs come only from the seed given to :meth:`generate`, so the same
seed always gives the same inputs.  At :data:`DEFAULT_SEED` the ops'
digests are also compared with the ones recorded in
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

import repro.experiment
import repro.workloads
from repro.exec.cache import ResultCache
from repro.experiment import RunContext, load_spec
from repro.experiment.spec import ExperimentSpec
from repro.netsim.link import Link
from repro.netsim.node import Router
from repro.netsim.topology import Topology
from repro.tcp.simulate import MultiFlowSimulation
from repro.units import MB, Gbps, bytes_, ms, seconds

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"
#: Scratch space for result caches and traces, inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"

#: The seed whose op digests are recorded in ``reference.json``; at this
#: seed ``spec-replay`` also runs the committed specs at their own seeds.
DEFAULT_SEED = 0

SITES = [f"site{i}" for i in range(12)]

clock = time.perf_counter


class OpRecord(NamedTuple):
    """One op's host time and the result of its check."""

    seconds: float
    ok: bool
    #: ``"cold"``/``"warm"`` for spec-replay, ``"op"`` elsewhere.
    phase: str = "op"
    #: Engine the op resolved to (the ``matrix-*`` workloads).
    engine: Optional[str] = None
    #: Work counts computed from the op's inputs and results.
    counts: Dict[str, float] = {}


def derive(seed: int, *path: object) -> int:
    """A 63-bit seed for ``path`` under the workload seed."""
    material = json.dumps([int(seed), [str(p) for p in path]])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference(name: str) -> List[str]:
    try:
        data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return []
    return list(data.get(name, []))


def _matrix_inputs(flows: Sequence) -> List[list]:
    return [[f.src, f.dst, repr(f.size.bits), repr(f.start.s),
             f.parallel_streams] for f in flows]


class Workload:
    name = ""
    why = ""
    #: Batches the traced run executes, once untraced and once traced.
    trace_batches = 1
    #: Op phases that ``ops_per_s`` and the op-time percentiles count.
    rate_phase = latency_phase = "op"

    def generate(self, seed: int):
        raise NotImplementedError

    def input_digest(self, inputs) -> str:
        raise NotImplementedError

    def batch(self, inputs, index: int, recorder=None) -> List[OpRecord]:
        raise NotImplementedError

    def reference(self, inputs, index: int) -> Optional[str]:
        """The recorded digest for batch ``index``, at the default seed."""
        refs = _reference(self.name)
        if inputs["seed"] != DEFAULT_SEED or not refs:
            return None
        return refs[index % len(refs)]


# -- campaign ---------------------------------------------------------------

#: Shaped like specs/chaos_quick.json (every default oracle, transfer
#: probe on) but widened to a few hundred schedules and re-seeded.
CAMPAIGN = {
    "kind": "campaign",
    "schema": 1,
    "design": "simple-science-dmz",
    "description": "benchmark campaign over the simple Science DMZ",
    "until_s": 1500.0,
    "alert_rule": {"baseline_samples": 3, "latency_rise_fraction": 0.5,
                   "loss_rate_threshold": 1e-05,
                   "throughput_drop_fraction": 0.5},
    "mesh": {"algorithm": "htcp", "bwctl_duration_s": 10.0,
             "bwctl_interval_s": 600.0, "hosts": [],
             "owamp_interval_s": 60.0, "owamp_packets": 20000},
    "oracles": [],
    "shrink": True,
    "max_shrink": 2,
    "space": {"cache_nodes": [], "cut_fraction": 0.25,
              "cuts": [["border", "wan"]],
              "kinds": ["linecard", "optics", "cpu", "duplex"],
              "max_faults": 2, "min_faults": 1, "nodes": [],
              "onset_max_s": 900.0, "onset_min_s": 120.0,
              "repair_fraction": 0.25, "storage_nodes": []},
    "transfer": {"files": 4, "max_duration_s": 86400.0, "size_gb": 2.0,
                 "tool": "globus"},
}


class Campaign(Workload):
    name = "campaign"
    why = ("chaos campaigns: scenario, routing, perfSONAR mesh, faults, "
           "DTN probe and oracles, with no kernel work")
    schedules = 200
    variants = 4

    def generate(self, seed):
        specs = [ExperimentSpec.from_dict(dict(
            CAMPAIGN, name=f"bench-campaign-{i}",
            seed=derive(seed, self.name, i), schedules=self.schedules))
            for i in range(self.variants)]
        return {"seed": seed, "specs": specs}

    def input_digest(self, inputs):
        return _digest([s.to_dict() for s in inputs["specs"]])

    def batch(self, inputs, index, recorder=None):
        spec = inputs["specs"][index % self.variants]
        marks: List[float] = []

        def on_point(event, fields):
            if event == "point":
                marks.append(clock())
                if recorder is not None:
                    recorder.op += 1

        if recorder is not None:
            recorder.op += 1
        start = clock()
        try:
            result = repro.experiment.run_experiment(
                spec, RunContext(progress=on_point), persist=False)
        except Exception:  # noqa: BLE001 - a crash fails the ops, not the run
            share = (clock() - start) / self.schedules
            return [OpRecord(share, False)] * self.schedules
        end = clock()
        # Each op runs from the previous point event to its own; the
        # last also carries the report the campaign builds after it.
        bounds = [start] + marks[:-1] + [end]
        reference = self.reference(inputs, index)
        digest_ok = (reference is None
                     or result.manifest.result_digest == reference)
        return [OpRecord(b - a, digest_ok and record.ok)
                for a, b, record in zip(bounds, bounds[1:],
                                        result.value.records)]

    def digests(self, inputs):
        return [repro.experiment.run_experiment(
            spec, persist=False).manifest.result_digest
            for spec in inputs["specs"]]


# -- matrix-exact -----------------------------------------------------------

def lossy_backbone(n_sites: int = 12) -> Topology:
    """An ``n_sites`` ring-and-chords backbone, like
    :func:`repro.workloads.wan_backbone`, with random loss on every third
    core span so the exact kernels' stochastic loss path runs."""
    topo = Topology(f"lossy-backbone-{n_sites}")
    jumbo = bytes_(9000)
    for i in range(n_sites):
        topo.add_node(Router(name=f"core{i}"))
    for i in range(n_sites):
        topo.connect(f"core{i}", f"core{(i + 1) % n_sites}",
                     Link(rate=Gbps(100), delay=ms(8), mtu=jumbo,
                          loss_probability=1e-5 if i % 3 == 0 else 0.0))
    for i in range(0, n_sites // 2, 3):
        topo.connect(f"core{i}", f"core{i + n_sites // 2}",
                     Link(rate=Gbps(100), delay=ms(16), mtu=jumbo))
    for i in range(n_sites):
        topo.add_host(f"site{i}", nic_rate=Gbps(100))
        topo.connect(f"site{i}", f"core{i}",
                     Link(rate=Gbps(40), delay=ms(1), mtu=jumbo))
    return topo


class MatrixExact(Workload):
    name = "matrix-exact"
    why = ("traffic matrices below the hybrid switchover: the exact "
           "per-flow kernels and the max-min allocator")
    trace_batches = 16
    matrices = 48
    #: 200 flows x 4 streams = 800 streams, below the 1,024 switchover.
    flows = 200
    horizon_s = 3.0

    def generate(self, seed):
        matrices = [repro.workloads.traffic_matrix(
            SITES, n_flows=self.flows,
            rng=np.random.default_rng(derive(seed, self.name, i)),
            arrival_window=seconds(2)).specs()
            for i in range(self.matrices)]
        return {"seed": seed, "topology": lossy_backbone(),
                "matrices": matrices,
                "loss_seeds": [derive(seed, self.name, "loss", i)
                               for i in range(self.matrices)]}

    def input_digest(self, inputs):
        return _digest([inputs["loss_seeds"]]
                       + [_matrix_inputs(m) for m in inputs["matrices"]])

    def _run(self, inputs, index):
        i = index % self.matrices
        sim = MultiFlowSimulation(
            inputs["topology"], inputs["matrices"][i],
            rng=np.random.default_rng(inputs["loss_seeds"][i]),
            backend="hybrid")
        progress = sim.run(until=seconds(self.horizon_s))
        return sim, progress

    @staticmethod
    def stats_digest(progress) -> str:
        return _digest([[label, repr(p.delivered.bits),
                         None if p.finish_time is None
                         else repr(p.finish_time.s), p.loss_events]
                        for label, p in sorted(progress.items())])

    def batch(self, inputs, index, recorder=None):
        if recorder is not None:
            recorder.op += 1
        start = clock()
        try:
            sim, progress = self._run(inputs, index)
        except Exception:  # noqa: BLE001
            return [OpRecord(clock() - start, False)]
        elapsed = clock() - start
        reference = self.reference(inputs, index)
        ok = (sim.backend != "fluid"
              and all(p.delivered.bits <= p.spec.size.bits * (1 + 1e-9)
                      for p in progress.values())
              and (reference is None
                   or self.stats_digest(progress) == reference))
        # The tick loop's step is min(smallest RTT / 2, 50 ms).
        dt = min(min(sim.profile_of(label).base_rtt.s for label in progress)
                 / 2.0, 0.05)
        streams = sum(p.spec.parallel_streams for p in progress.values())
        return [OpRecord(elapsed, ok, engine=sim.backend, counts={
            "stream_ticks": streams * self.horizon_s / dt})]

    def digests(self, inputs):
        return [self.stats_digest(self._run(inputs, i)[1])
                for i in range(self.matrices)]


# -- matrix-fluid -----------------------------------------------------------

#: Matrix shape shared by matrix-fluid and the fluid accuracy probe.
FLUID_MATRIX = {"mean_size": MB(8), "arrival_window": seconds(3)}


class MatrixFluid(Workload):
    name = "matrix-fluid"
    why = ("traffic matrices far above the hybrid switchover, run to "
           "completion: flow-class building and the fluid engine")
    trace_batches = 3
    matrices = 12
    flows = 10_000

    def generate(self, seed):
        matrices = [repro.workloads.traffic_matrix(
            SITES, n_flows=self.flows,
            rng=np.random.default_rng(derive(seed, self.name, i)),
            **FLUID_MATRIX).specs()
            for i in range(self.matrices)]
        return {"seed": seed, "topology": repro.workloads.wan_backbone(12),
                "matrices": matrices}

    def input_digest(self, inputs):
        return _digest([_matrix_inputs(m) for m in inputs["matrices"]])

    def batch(self, inputs, index, recorder=None):
        if recorder is not None:
            recorder.op += 1
        flows = inputs["matrices"][index % self.matrices]
        start = clock()
        try:
            sim = MultiFlowSimulation(inputs["topology"], flows,
                                      backend="hybrid")
            progress = sim.run()
        except Exception:  # noqa: BLE001
            return [OpRecord(clock() - start, False)]
        elapsed = clock() - start
        if sim.backend != "fluid":
            return [OpRecord(elapsed, False, engine=sim.backend)]
        requested = sum(p.spec.size.bits for p in progress.values())
        delivered = sum(p.delivered.bits for p in progress.values())
        ok = (all(p.finish_time is not None for p in progress.values())
              and abs(delivered - requested) <= 1e-9 * requested)
        result = sim.fluid_result
        return [OpRecord(elapsed, ok, engine=sim.backend, counts={
            "fluid_ticks": result.ticks,
            "fluid_classes": result.n_classes,
            "fluid_classes_retired": result.classes_retired,
            "fluid_class_ticks": result.ticks * result.n_classes})]


#: The fluid accuracy probe: slices of one gravity matrix, at a fixed
#: seed so the error is a property of the engine, not of the draw.
ACCURACY_SEED = 20131117
ACCURACY_SLICES = 4
#: 400 flows x 4 streams = 1,600 streams: above the switchover, still
#: cheap for the exact kernels.
ACCURACY_FLOWS = 400
ACCURACY_HORIZON_S = 3.0


def fluid_error() -> float:
    """Mean ``abs(fluid_delivered / exact_delivered - 1)`` over the probe
    slices, both engines stopped at the same horizon."""
    topo = repro.workloads.wan_backbone(12)
    flows = repro.workloads.traffic_matrix(
        SITES, n_flows=ACCURACY_SLICES * ACCURACY_FLOWS,
        rng=np.random.default_rng(ACCURACY_SEED), **FLUID_MATRIX).specs()
    errors = []
    for k in range(ACCURACY_SLICES):
        part = flows[k * ACCURACY_FLOWS:(k + 1) * ACCURACY_FLOWS]
        delivered = {}
        # switchover=1 always resolves hybrid to the fluid engine; an
        # unreachable switchover always resolves it to the exact tier.
        for tier, switchover in (("fluid", 1), ("exact", 1 << 62)):
            sim = MultiFlowSimulation(topo, part, backend="hybrid",
                                      switchover=switchover)
            if (sim.backend == "fluid") != (tier == "fluid"):
                raise RuntimeError(
                    f"accuracy probe resolved to {sim.backend!r}, "
                    f"expected the {tier} tier")
            sim.run(until=seconds(ACCURACY_HORIZON_S))
            delivered[tier] = sim.aggregate_delivered().bits
        errors.append(abs(delivered["fluid"] / delivered["exact"] - 1.0))
    return float(np.mean(errors))


# -- spec-replay ------------------------------------------------------------

class SpecReplay(Workload):
    name = "spec-replay"
    why = ("every committed spec through run_experiment, cold then warm: "
           "experiment layer, result cache, federation and sweeps")
    warm_passes = 3
    trace_batches = 2
    #: Re-seeded copies of the spec set, one per batch in turn.  How much
    #: a spec costs depends on its seed (a campaign that finds violations
    #: also shrinks them), so a run covers several seeds, not one.
    variants = 12
    # Cold runs do the work and set the rate; warm runs are cache reads
    # and set the op-time percentiles.
    rate_phase, latency_phase = "cold", "warm"

    def generate(self, seed):
        spec_dir = ROOT / "specs"
        paths = sorted(p for p in spec_dir.glob("*.json")
                       if p.name != "golden.json")
        committed = [load_spec(p) for p in paths]
        variants = [[replace(s, seed=derive(seed, self.name, i, s.name))
                     for s in committed] for i in range(self.variants)]
        golden = {}
        if seed == DEFAULT_SEED:
            # The first variant runs the committed specs as they are.
            variants[0] = committed
            golden = json.loads((spec_dir / "golden.json").read_text(
                encoding="utf-8"))
        return {"seed": seed, "variants": variants, "golden": golden}

    def input_digest(self, inputs):
        return _digest([[s.to_dict() for s in specs]
                        for specs in inputs["variants"]])

    @staticmethod
    def _timed(spec, cache, recorder):
        if recorder is not None:
            recorder.op += 1
        start = clock()
        try:
            result = repro.experiment.run_experiment(
                spec, RunContext(cache=cache), persist=False)
        except Exception:  # noqa: BLE001
            return clock() - start, None
        return clock() - start, result.manifest

    def batch(self, inputs, index, recorder=None):
        OUT_DIR.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
        try:
            cache = ResultCache(cache_dir)
            ops: List[OpRecord] = []
            cold: Dict[str, str] = {}
            specs = inputs["variants"][index % self.variants]
            goldens = inputs["golden"] if index % self.variants == 0 else {}
            for spec in specs:
                elapsed, manifest = self._timed(spec, cache, recorder)
                golden = goldens.get(spec.name)
                ok = manifest is not None and (
                    golden is None
                    or (golden["spec_digest"], golden["result_digest"])
                    == (manifest.spec_digest, manifest.result_digest))
                if manifest is not None:
                    cold[spec.name] = manifest.digest()
                ops.append(OpRecord(elapsed, ok, "cold"))
            for _ in range(self.warm_passes):
                for spec in specs:
                    elapsed, manifest = self._timed(spec, cache, recorder)
                    ok = (manifest is not None
                          and cold.get(spec.name) == manifest.digest())
                    ops.append(OpRecord(elapsed, ok, "warm"))
            ops[-1] = ops[-1]._replace(counts={
                "cache_hits": cache.hits,
                "cache_gets": cache.hits + cache.misses})
            return ops
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Campaign(), MatrixExact(), MatrixFluid(),
                                 SpecReplay())}
