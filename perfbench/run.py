"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15
    python3 perfbench/run.py --describe

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
fixed set of ops once untraced and once with spans around every layer
boundary, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--describe`` prints every metric with its unit and
direction and runs each workload's checks once at the default seed.
"""

import time

#: Set-up is timed from interpreter start of this script: importing
#: ``repro.cli`` plus generating the workload's inputs.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is measured this many times in fresh interpreters (this one
#: included) and reported as the median.
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
#: ops_per_s is the median over this many windows of the timed phase.
RATE_WINDOWS = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print every metric and each workload's checks")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed digests")
    return parser.parse_args(argv)


def _load_program():
    """Import the checkout's own ``repro``, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    import repro.cli  # noqa: F401 - part of the measured set-up

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _child_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _import_times() -> Dict[str, float]:
    """Import time of ``repro.cli`` as a whole and of networkx and numpy
    within it, from ``python -X importtime`` (median of runs)."""
    samples: Dict[str, List[float]] = {"repro": [], "networkx": [],
                                       "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        # Lines read "import time: self | cumulative | <indent>name"; the
        # unindented lines are the imports the command itself made.
        rows = [line.split("|") for line in proc.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2]
        rows = [(raw.strip(), len(raw) - len(raw.lstrip()), int(cumulative))
                for _, cumulative, raw in rows[1:]]
        top = min(indent for _, indent, _ in rows)
        samples["repro"].append(sum(
            us for name, indent, us in rows
            if indent == top and name.split(".")[0] == "repro") / 1e6)
        for name in ("networkx", "numpy"):
            samples[name].append(next(
                (us for row_name, _, us in rows if row_name == name), 0) / 1e6)
    return {f"import.{name}_s": statistics.median(values)
            for name, values in samples.items()}


def _failed(ops) -> int:
    return sum(1 for op in ops if not op.ok)


def _timed_run(workload, inputs, seconds: float):
    from perfbench.calibration import host_factor, probes_for
    from perfbench.metrics import tail, windowed_rate
    from perfbench.workloads import fluid_error

    ops, probes = [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        batch = workload.batch(inputs, index)
        probes.extend(probes_for(sum(op.seconds for op in batch)))
        ops.extend(batch)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factor = host_factor(probes)
    rated = [op.seconds for op in ops if op.phase == workload.rate_phase]
    timed = [op.seconds for op in ops if op.phase == workload.latency_phase]
    tail_value = tail(timed)
    if tail_value is None:
        tail_value = (max(timed), 100.0, len(timed))
    raw = {
        "ops_per_s": windowed_rate(rated, seconds / RATE_WINDOWS),
        "op_p50_ms": 1e3 * statistics.median(timed),
        "op_tail_ms": 1e3 * tail_value[0],
    }
    print(f"{workload.name}: {len(ops)} ops, {_failed(ops)} failed "
          f"(failed_frac {_failed(ops) / len(ops):.6g}); op_tail_ms is "
          f"p{tail_value[1]:.2f} of {tail_value[2]} ops; host factor "
          f"{factor:.4f} from {len(probes)} probes; unscaled "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    metrics = {
        "ops_per_s": raw["ops_per_s"] * factor,
        "op_p50_ms": raw["op_p50_ms"] / factor,
        "op_tail_ms": raw["op_tail_ms"] / factor,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - _failed(ops) / len(ops),
        "fluid_err": fluid_error(),
    }
    return ops, metrics


def _traced_run(workload, inputs, seed: int):
    from perfbench.tracing import SpanRecorder
    from perfbench.workloads import OUT_DIR

    recorder = SpanRecorder()
    with recorder.installed():
        workload.generate(seed)
    # One untimed batch first, so lazy set-up does not count against the
    # untraced side of the overhead.
    workload.batch(inputs, 0)
    start = time.perf_counter()
    for index in range(workload.trace_batches):
        workload.batch(inputs, index)
    untraced = time.perf_counter() - start
    ops = []
    start = time.perf_counter()
    with recorder.installed():
        for index in range(workload.trace_batches):
            ops.extend(workload.batch(inputs, index, recorder))
    traced = time.perf_counter() - start
    recorder.dump(OUT_DIR / f"trace-{workload.name}-{seed}.json")
    metrics = _layer_metrics(recorder, ops)
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics.update(_import_times())
    print(f"{workload.name}: traced {len(ops)} ops in {traced:.3f} s, "
          f"untraced {untraced:.3f} s, {len(recorder.spans)} spans")
    return ops, metrics


def _layer_metrics(recorder, ops) -> Dict[str, float]:
    from perfbench.metrics import PER_LAYER

    totals = recorder.totals()
    counts: Dict[str, float] = {}
    for op in ops:
        for key, value in op.counts.items():
            counts[key] = counts.get(key, 0) + value

    def field(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, key = metric.name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            metrics[metric.name] = field(span, key)
    metrics.update({
        "netsim.engine.events": field("netsim.engine", "calls"),
        "netsim.topology.share": ratio(
            recorder.covered_by(("netsim.topology.path",
                                 "netsim.topology.profile_between")),
            sum(op.seconds for op in ops)),
        "tcp.simulate.stream_ticks": counts.get("stream_ticks", 0),
        "tcp.simulate.ns_per_stream_tick": ratio(
            1e9 * field("tcp.simulate.run", "busy_s"),
            counts.get("stream_ticks", 0)),
        "fluid.ticks": counts.get("fluid_ticks", 0),
        "fluid.classes": counts.get("fluid_classes", 0),
        "fluid.classes_retired": counts.get("fluid_classes_retired", 0),
        "fluid.ns_per_class_tick": ratio(
            1e9 * field("fluid.run", "busy_s"),
            counts.get("fluid_class_ticks", 0)),
        "engine.exact_ops": sum(1 for op in ops
                                if op.engine not in (None, "fluid")),
        "engine.fluid_ops": sum(1 for op in ops if op.engine == "fluid"),
        "exec.cache.hit_ratio": ratio(counts.get("cache_hits", 0),
                                      counts.get("cache_gets", 0)),
    })
    return metrics


def _describe() -> int:
    from perfbench.metrics import describe
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    for line in describe():
        print(line)
    failures = 0
    for workload in WORKLOADS.values():
        inputs = workload.generate(DEFAULT_SEED)
        ops = workload.batch(inputs, 0)
        failed = _failed(ops)
        failures += failed
        print(f"check  {workload.name:<13} {len(ops)} ops at seed "
              f"{DEFAULT_SEED}: {'ok' if not failed else f'{failed} FAILED'}")
    return 1 if failures else 0


def _write_reference() -> int:
    from perfbench.workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS

    reference = {}
    for name in ("campaign", "matrix-exact"):
        workload = WORKLOADS[name]
        reference[name] = workload.digests(workload.generate(DEFAULT_SEED))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _load_program()
    from perfbench.metrics import END_TO_END, PER_LAYER, result_line
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.describe:
        return _describe()
    if args.write_reference:
        return _write_reference()
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(seed)
    setup = time.perf_counter() - STARTED
    if args.setup_only:
        print(repr(setup))
        return 0
    print(f"{workload.name}: seed {seed}, inputs "
          f"{workload.input_digest(inputs)[:16]}")

    if args.trace:
        ops, metrics = _traced_run(workload, inputs, seed)
        selected = PER_LAYER
    else:
        setups = [setup] + [_child_setup(workload.name, seed)
                            for _ in range(SETUP_SAMPLES - 1)]
        ops, metrics = _timed_run(workload, inputs, args.seconds)
        metrics["setup_s"] = statistics.median(setups)
        selected = END_TO_END
    print(json.dumps(result_line(metrics, selected, attempted=len(ops),
                                 failed=_failed(ops))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
