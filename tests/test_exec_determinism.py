"""Determinism harness for repro.exec: parallel == serial, byte-for-byte.

The contract the exec subsystem ships with (ISSUE 2): a sweep run
through the process pool, or replayed from the result cache, returns a
``SweepResult`` *identical* to the serial run — same records, same
order, same rendered table text.  These tests pin that down on the
paper's own workload (the Figure 1 loss×RTT grid) plus the tricky
corners: scheduling skew, error propagation, cache invalidation, and
the pickling constraint on swept functions.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.sweep import sweep
from repro.errors import ConfigurationError, ExecError
from repro.exec import (
    ParallelRunner,
    ResultCache,
    code_version_tag,
    derive_seed,
)
from repro.tcp.mathis import mathis_throughput
from repro.units import bytes_, seconds

#: The Figure 1 working points: RTT sweep at the §2 loss rate and two
#: heavier-loss rows.
FIG1_GRID = {
    "rtt_ms": [1, 2, 5, 10, 20, 40, 60, 80, 100],
    "loss": [1.0 / 22_000.0, 1e-4, 1e-3],
}


def mathis_point(rtt_ms, loss):
    """Mathis ceiling (bps) at one Figure-1 grid point."""
    return mathis_throughput(bytes_(9000), seconds(rtt_ms / 1e3), loss).bps


def slow_inverted(delay_ms):
    """Sleeps *longer* for earlier grid points, to invert completion."""
    time.sleep(delay_ms / 1e3)
    return delay_ms * 10


def flaky(x, y):
    if x == 2:
        raise ValueError(f"x={x} is right out")
    return x * 100 + y


def distinct_failures(x):
    if x >= 3:
        raise ValueError(f"boom at x={x}")
    return x


def seeded_value(x, seed):
    return f"{x}/{seed}"


class TestParallelMatchesSerial:
    def test_fig1_grid_records_order_and_table(self):
        serial = sweep(mathis_point, FIG1_GRID, value_label="bps")
        parallel = sweep(mathis_point, FIG1_GRID, value_label="bps",
                         workers=4)
        assert parallel.records == serial.records
        assert [r.params for r in parallel.records] == \
            [r.params for r in serial.records]
        assert (parallel.table("fig1").render_text()
                == serial.table("fig1").render_text())

    def test_workers_one_and_zero_are_serial(self):
        serial = sweep(mathis_point, FIG1_GRID)
        for workers in (None, 0, 1):
            assert sweep(mathis_point, FIG1_GRID,
                         workers=workers).records == serial.records

    def test_order_restored_under_scheduling_skew(self):
        # Earlier points sleep longest, so completion order is roughly
        # the reverse of submission order; output order must not care.
        grid = {"delay_ms": [120, 80, 40, 0]}
        result = sweep(slow_inverted, grid, workers=4)
        assert [r.params["delay_ms"] for r in result.records] == \
            [120, 80, 40, 0]
        assert [r.value for r in result.records] == [1200, 800, 400, 0]


class TestCachedRuns:
    def test_cache_accepts_a_directory_path(self, tmp_path):
        # cache= takes a ResultCache or a plain path (str/PathLike).
        cold = sweep(mathis_point, FIG1_GRID, cache=str(tmp_path / "c"))
        warm = sweep(mathis_point, FIG1_GRID, cache=tmp_path / "c")
        assert warm.records == cold.records
        assert warm.stats["evaluated"] == 0
        assert warm.stats["cache_hits"] == len(cold.records)

    def test_second_run_is_all_hits_with_zero_evaluations(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        n_points = 9 * 3
        first = sweep(mathis_point, FIG1_GRID, workers=4, cache=cache)
        assert first.stats["evaluated"] == n_points
        assert first.stats["cache_misses"] == n_points
        assert first.stats["cache_hits"] == 0

        second = sweep(mathis_point, FIG1_GRID, workers=4, cache=cache)
        assert second.stats["evaluated"] == 0, \
            "cached rerun must not evaluate the swept function"
        assert second.stats["cache_hits"] == n_points
        assert second.records == first.records
        assert (second.table("fig1").render_text()
                == first.table("fig1").render_text())

        # The counters are real telemetry instruments, exported like
        # any other component's metrics.
        hits = cache.metrics.get("hits", component="exec.cache")
        assert hits is not None and hits.value == n_points
        assert "exec.cache" in cache.metrics.render_text()

    def test_cached_serial_equals_uncached_parallel(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        baseline = sweep(mathis_point, FIG1_GRID, workers=4)
        sweep(mathis_point, FIG1_GRID, cache=cache)          # populate
        replay = sweep(mathis_point, FIG1_GRID, cache=cache)  # replay
        assert replay.stats["evaluated"] == 0
        assert replay.records == baseline.records
        assert (replay.table("t").render_text()
                == baseline.table("t").render_text())

    def test_code_version_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        grid = {"x": [1, 2], "y": [3, 4]}

        def point(x, y):
            return float(x + y)

        sweep(point, grid, cache=cache, code_version="v1")
        again = sweep(point, grid, cache=cache, code_version="v1")
        assert again.stats["cache_hits"] == 4

        bumped = sweep(point, grid, cache=cache, code_version="v2")
        assert bumped.stats["cache_hits"] == 0
        assert bumped.stats["evaluated"] == 4

    def test_default_version_tag_tracks_source(self):
        def one(x):
            return x + 1

        def two(x):
            return x + 2

        assert code_version_tag(one) == code_version_tag(one)
        assert code_version_tag(one) != code_version_tag(two)

    def test_version_tag_reads_the_source_once_per_function(self,
                                                            monkeypatch):
        import inspect

        def three(x):
            return x + 3

        reads = []
        real = inspect.getsource

        def counted(obj):
            reads.append(obj)
            return real(obj)

        monkeypatch.setattr(inspect, "getsource", counted)
        first = code_version_tag(three)
        assert code_version_tag(three) == first
        assert reads == [three]


class TestErrorPropagation:
    def test_record_mode_parallel_matches_serial(self):
        grid = {"x": [1, 2, 3], "y": [0, 1]}
        serial = sweep(flaky, grid, on_error="record")
        parallel = sweep(flaky, grid, on_error="record", workers=3)
        assert parallel.records == serial.records
        assert (parallel.table("flaky").render_text()
                == serial.table("flaky").render_text())
        assert len(parallel.failures()) == 2
        assert all("right out" in r.error for r in parallel.failures())

    def test_raise_mode_raises_earliest_grid_failure(self):
        grid = {"x": [1, 2, 3, 4, 5]}
        with pytest.raises(ValueError) as serial_exc:
            sweep(distinct_failures, grid)
        with pytest.raises(ValueError) as parallel_exc:
            sweep(distinct_failures, grid, workers=4)
        # Not just any failure: the one the serial loop would hit first.
        assert str(parallel_exc.value) == str(serial_exc.value) == \
            "boom at x=3"

    def test_record_mode_errors_are_cacheable(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        grid = {"x": [1, 2, 3], "y": [0, 1]}
        first = sweep(flaky, grid, on_error="record", cache=cache)
        replay = sweep(flaky, grid, on_error="record", cache=cache)
        assert replay.stats["evaluated"] == 0
        assert replay.records == first.records

    def test_cached_failure_replayed_in_raise_mode_is_exec_error(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        grid = {"x": [1, 2, 3], "y": [0, 1]}
        sweep(flaky, grid, on_error="record", cache=cache)
        with pytest.raises(ExecError, match="right out"):
            sweep(flaky, grid, cache=cache)


class TestPicklingConstraint:
    def test_lambda_with_workers_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="picklable"):
            sweep(lambda x: x, {"x": [1, 2, 3]}, workers=2)

    def test_closure_with_workers_is_a_configuration_error(self):
        offset = 5

        def local_fn(x):
            return x + offset

        with pytest.raises(ConfigurationError, match="top level"):
            sweep(local_fn, {"x": [1, 2, 3]}, workers=2)

    def test_lambda_still_fine_serially(self):
        result = sweep(lambda x: x * 2, {"x": [1, 2, 3]})
        assert result.values() == [2, 4, 6]


class TestSeedDerivation:
    def test_seed_threading_parallel_matches_serial(self):
        grid = {"x": [1, 2, 3, 4]}
        serial = sweep(seeded_value, grid, base_seed=42)
        parallel = sweep(seeded_value, grid, base_seed=42, workers=4)
        assert parallel.records == serial.records

    def test_derived_seed_is_pure_function_of_point(self):
        grid = {"x": [7]}
        result = sweep(seeded_value, grid, base_seed=99)
        expected = derive_seed(99, {"x": 7})
        assert result.records[0].value == f"7/{expected}"

    def test_seed_dimension_collision_rejected(self):
        with pytest.raises(ConfigurationError, match="collide"):
            sweep(seeded_value, {"x": [1], "seed": [1, 2]}, base_seed=0)

    def test_runner_exposes_point_outcomes_in_order(self):
        runner = ParallelRunner(2, base_seed=7)
        outcomes = runner.map(seeded_value,
                              [{"x": 1}, {"x": 2}, {"x": 3}])
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.seed == derive_seed(7, o.params) for o in outcomes)
        assert runner.stats()["evaluated"] == 3
