"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``;
the repository's own test run does not collect them.
"""

import json
import pathlib
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.metrics import (END_TO_END, NAME_RE, PER_LAYER,  # noqa: E402
                               result_line, tail, windowed_rate)
from perfbench.tracing import SpanRecorder  # noqa: E402
from perfbench.workloads import (DEFAULT_SEED, WORKLOADS,  # noqa: E402
                                 MatrixExact)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_decides_inputs(name):
    workload = WORKLOADS[name]
    first = workload.input_digest(workload.generate(3))
    assert workload.input_digest(workload.generate(3)) == first
    assert workload.input_digest(workload.generate(4)) != first


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    value, percentile, n = tail(samples)
    assert (value, percentile, n) == (90.0, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10
    value, percentile, n = tail(samples[:11])
    assert (value, n) == (min(samples[:11]), 11)
    assert percentile == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_enough_ops(n):
    assert tail([1.0] * n) is None


def test_windowed_rate_is_median_over_windows():
    assert windowed_rate([0.5] * 8, 1.0) == 2.0
    # One slow window out of three does not move the median.
    assert windowed_rate([0.5] * 4 + [2.0], 1.0) == 2.0
    # Too little op time for a full window: the run is one window.
    assert windowed_rate([0.1, 0.3], 1.0) == 5.0


def _matrix_run(monkeypatch, **patches):
    workload = MatrixExact()
    for name, value in patches.items():
        monkeypatch.setattr(MatrixExact, name, value)
    monkeypatch.setattr(workloads, "fluid_error", lambda: 0.01)
    inputs = workload.generate(DEFAULT_SEED)
    ops, metrics = run._timed_run(workload, inputs, seconds=1e-3)
    line = result_line(dict(metrics, setup_s=1.0), END_TO_END,
                       attempted=len(ops), failed=run._failed(ops))
    return ops, line


def test_failed_check_counts_without_crash(monkeypatch):
    ops, line = _matrix_run(monkeypatch,
                            stats_digest=staticmethod(lambda p: "wrong"))
    assert ops and line["failed"] == len(ops)
    assert line["correct"] is False
    assert line["metrics"]["ok_frac"]["value"] == 0.0


def test_raising_op_counts_as_failed(monkeypatch):
    def broken(self, inputs, index):
        raise RuntimeError("forced")

    ops, line = _matrix_run(monkeypatch, _run=broken)
    assert line["attempted"] == len(ops) and line["failed"] == len(ops)


def test_metric_names_and_benchmark_json_agree():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]


def test_self_time_is_duration_minus_children():
    recorder = SpanRecorder()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = recorder.wrap("inner", inner)
    recorder.wrap("outer", outer)()
    totals = recorder.totals()
    outer_span = next(s for s in recorder.spans if s[0] == "outer")
    children = sum(s[2] - s[1] for s in recorder.spans if s[0] == "inner")
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        outer_span[2] - outer_span[1] - children)
    assert 0.005 < totals["outer"]["self_s"] < totals["inner"]["busy_s"]
