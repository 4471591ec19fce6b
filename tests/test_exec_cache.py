"""ResultCache unit tests + the cross-platform key-stability guard.

The cache key function must be a pure function of its inputs on every
platform and under every ``PYTHONHASHSEED`` — i.e. built on sha256 of
a canonical encoding, never on Python's randomized ``hash()``.  A
golden key fixture pins the exact hex digest; a subprocess check
proves two interpreters with different hash seeds agree.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")

from repro.exec import ResultCache, cache_key, canonical_json, derive_seed

#: Frozen inputs for the golden fixture.  Do not "refresh" these keys
#: to make a failure pass: a changed digest means every cache on disk
#: just silently invalidated, which is a compatibility break — bump
#: ``repro.exec.cache.LAYOUT_VERSION`` intentionally instead.
GOLDEN_FN = "benchmarks.fig1.measure_point"
GOLDEN_PARAMS = {"rtt_ms": 10, "loss": 4.5e-05, "algorithm": "reno"}
GOLDEN_SEED = 7
GOLDEN_VERSION = "v1"
GOLDEN_KEY = \
    "683238d4ad2b8f2caa636832f772d5f17d64128f54bcc8b5f8d7bac52da1fa08"
GOLDEN_DERIVED_SEED = 8840506737630867764


def _square(x):
    return x * x


class TestKeyStability:
    def test_golden_key_fixture(self):
        assert cache_key(GOLDEN_FN, GOLDEN_PARAMS, GOLDEN_SEED,
                         GOLDEN_VERSION) == GOLDEN_KEY

    def test_golden_derived_seed(self):
        assert derive_seed(11, GOLDEN_PARAMS) == GOLDEN_DERIVED_SEED

    def test_key_ignores_param_insertion_order(self):
        reordered = dict(reversed(list(GOLDEN_PARAMS.items())))
        assert cache_key(GOLDEN_FN, reordered, GOLDEN_SEED,
                         GOLDEN_VERSION) == GOLDEN_KEY

    def test_key_is_pythonhashseed_independent(self):
        """Two interpreters with different hash seeds agree on keys."""
        program = (
            "from repro.exec import cache_key, derive_seed;"
            f"print(cache_key({GOLDEN_FN!r}, {GOLDEN_PARAMS!r}, "
            f"{GOLDEN_SEED}, {GOLDEN_VERSION!r}));"
            f"print(derive_seed(11, {GOLDEN_PARAMS!r}))"
        )
        outputs = []
        for hashseed in ("0", "1", "4242"):
            env = dict(os.environ,
                       PYTHONHASHSEED=hashseed,
                       PYTHONPATH=SRC_DIR + os.pathsep +
                       os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run([sys.executable, "-c", program],
                                  capture_output=True, text=True,
                                  env=env, check=True)
            outputs.append(proc.stdout.strip().splitlines())
        assert outputs[0] == outputs[1] == outputs[2] == \
            [GOLDEN_KEY, str(GOLDEN_DERIVED_SEED)]

    def test_each_component_changes_the_key(self):
        base = cache_key(GOLDEN_FN, GOLDEN_PARAMS, GOLDEN_SEED,
                         GOLDEN_VERSION)
        assert cache_key("other.fn", GOLDEN_PARAMS, GOLDEN_SEED,
                         GOLDEN_VERSION) != base
        assert cache_key(GOLDEN_FN, {**GOLDEN_PARAMS, "rtt_ms": 11},
                         GOLDEN_SEED, GOLDEN_VERSION) != base
        assert cache_key(GOLDEN_FN, GOLDEN_PARAMS, 8,
                         GOLDEN_VERSION) != base
        assert cache_key(GOLDEN_FN, GOLDEN_PARAMS, GOLDEN_SEED,
                         "v2") != base

    def test_canonical_json_never_uses_hash_ordering(self):
        # Sets would iterate in hash order; the encoder must not accept
        # anything whose encoding could depend on hash().
        encoded = canonical_json({"b": 2, "a": 1, "c": [1, "x"]})
        assert encoded == '{"a":1,"b":2,"c":[1,"x"]}'


class TestResultCacheStore:
    def test_roundtrip_value_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("fn", {"x": 1}, None, "v")
        assert cache.load(key) is None
        assert cache.misses == 1
        assert cache.store(key, fn_id="fn", params={"x": 1}, seed=None,
                           version="v", value=[1.5, "two", None, True])
        entry = cache.load(key)
        assert entry["ok"] is True
        assert entry["value"] == [1.5, "two", None, True]
        assert cache.hits == 1 and cache.stores == 1
        assert len(cache) == 1

    def test_counters_are_stats_without_the_directory_scan(self, tmp_path,
                                                          monkeypatch):
        cache = ResultCache(tmp_path)
        key = cache.key("fn", {"x": 1}, None, "v")
        cache.store(key, fn_id="fn", params={}, seed=None, version="v",
                    value=1)
        cache.load(key)
        stats = cache.stats()
        assert stats.pop("entries") == 1

        def no_scan(self):
            raise AssertionError("counters() scanned the cache directory")

        monkeypatch.setattr(ResultCache, "__len__", no_scan)
        assert cache.counters() == stats

    def test_warm_map_does_not_scan_the_cache_directory(self, tmp_path,
                                                       monkeypatch):
        from repro.exec import ParallelRunner

        cache = ResultCache(tmp_path)
        points = [{"x": 1}, {"x": 2}]
        ParallelRunner(1, cache=cache).map(_square, points)

        def no_scan(self):
            raise AssertionError("map() scanned the cache directory")

        monkeypatch.setattr(ResultCache, "__len__", no_scan)
        outcomes = ParallelRunner(1, cache=cache).map(_square, points)
        assert [o.value for o in outcomes] == [1, 4]
        assert cache.hits == 2

    def test_uncacheable_values_are_skipped_not_mangled(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bad in ((1, 2), {1: "int key"}, object(), float("nan"),
                    {"x": (1, 2)}):
            key = cache.key("fn", {"v": repr(bad)}, None, "v")
            assert not cache.store(key, fn_id="fn", params={}, seed=None,
                                   version="v", value=bad)
        assert cache.uncacheable == 5
        assert len(cache) == 0

    def test_error_outcomes_are_cacheable(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("fn", {"x": 2}, None, "v")
        assert cache.store(key, fn_id="fn", params={"x": 2}, seed=None,
                           version="v", value=None, error="x=2 bad")
        entry = cache.load(key)
        assert entry["ok"] is False and entry["error"] == "x=2 bad"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("fn", {"x": 1}, None, "v")
        cache.store(key, fn_id="fn", params={"x": 1}, seed=None,
                    version="v", value=42)
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{ not json")
        assert cache.load(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        for x in range(5):
            key = cache.key("fn", {"x": x}, None, "v")
            cache.store(key, fn_id="fn", params={"x": x}, seed=None,
                        version="v", value=x)
        assert cache.clear() == 5
        assert len(cache) == 0

    def test_entry_file_is_human_auditable(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("fn", {"x": 1}, 99, "v")
        cache.store(key, fn_id="fn", params={"x": 1}, seed=99,
                    version="v", value=3.5)
        path = tmp_path / key[:2] / f"{key}.json"
        entry = json.loads(path.read_text())
        assert entry["fn"] == "fn" and entry["seed"] == 99
        assert entry["params"] == {"x": 1} and entry["key"] == key

    def test_shared_registry_integration(self, tmp_path):
        from repro.telemetry import MetricsRegistry
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        cache.load(cache.key("fn", {}, None, ""))
        assert registry.get("misses", component="exec.cache").value == 1
        assert "exec.cache" in registry.render_text()
