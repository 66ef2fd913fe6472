"""The content-addressed result cache."""

import json

import pytest

from repro.figures import Rows
from repro.runner import ResultCache, cache_key


class TestCacheKey:
    def test_stable_for_identical_inputs(self):
        a = cache_key("fig5", 0, {"duration_ms": 3000, "crash_ms": 1500})
        b = cache_key("fig5", 0, {"crash_ms": 1500, "duration_ms": 3000})
        assert a == b  # param order must not matter

    def test_sensitive_to_every_component(self):
        base = cache_key("fig5", 0, {"duration_ms": 3000})
        assert cache_key("fig6", 0, {"duration_ms": 3000}) != base
        assert cache_key("fig5", 1, {"duration_ms": 3000}) != base
        assert cache_key("fig5", 0, {"duration_ms": 100}) != base
        assert cache_key("fig5", 0, {"duration_ms": 3000}, version="9.9") != base

    def test_tuple_params_hash_like_lists(self):
        assert cache_key("f", 0, {"flows": (1, 5)}) == cache_key(
            "f", 0, {"flows": [1, 5]}
        )


class TestResultCache:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("0" * 64) is None
        assert len(cache) == 0

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        rows = Rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        key = cache_key("fig1", 0, {})
        cache.put(key, rows, figure="fig1", seed=0, params={})
        cached = cache.get(key)
        assert cached == rows
        assert isinstance(cached, Rows)
        assert cached.to_csv() == rows.to_csv()
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("fig1", 0, {})
        path = cache.put(key, Rows([{"a": 1}]), figure="fig1", seed=0, params={})
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_mismatched_key_field_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("fig1", 0, {})
        path = cache.put(key, Rows([{"a": 1}]), figure="fig1", seed=0, params={})
        payload = json.loads(path.read_text())
        payload["key"] = "f" * 64
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    @pytest.mark.parametrize(
        "payload", [[], "x", 1, None], ids=["list", "str", "int", "null"]
    )
    def test_non_object_entry_is_a_miss(self, tmp_path, payload):
        # Valid JSON that is not an object must not reach ``payload.get``.
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("fig1", 0, {})
        path = cache.put(key, Rows([{"a": 1}]), figure="fig1", seed=0,
                         params={})
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        # A writer killed mid-write (or a full disk) must cost one
        # recomputation, never a crash.
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("fig1", 0, {})
        path = cache.put(key, Rows([{"a": 1}] * 50), figure="fig1",
                         seed=0, params={})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.get(key) is None

    def test_rows_field_missing_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("fig1", 0, {})
        path = cache.put(key, Rows([{"a": 1}]), figure="fig1", seed=0,
                         params={})
        payload = json.loads(path.read_text())
        del payload["rows"]
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_rows_field_of_wrong_shape_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("fig1", 0, {})
        path = cache.put(key, Rows([{"a": 1}]), figure="fig1", seed=0,
                         params={})
        for bad_rows in ("not-a-list", [1, 2, 3], [{"a": 1}, "oops"]):
            payload = json.loads(path.read_text())
            payload["rows"] = bad_rows
            path.write_text(json.dumps(payload))
            assert cache.get(key) is None

    def test_run_jobs_recomputes_through_a_corrupted_cache(self, tmp_path):
        # End to end: a sweep over a poisoned cache silently recomputes.
        from repro.runner import expand_grid, run_jobs

        cache = ResultCache(tmp_path / "cache")
        jobs = expand_grid(["fig1"], seeds=[0])
        first = run_jobs(jobs, workers=1, cache=cache)
        (entry,) = list((tmp_path / "cache").glob("??/*.json"))
        entry.write_text(entry.read_text()[:10])
        second = run_jobs(jobs, workers=1, cache=cache)
        (record,) = second.manifest.records
        assert not record.cached
        assert second.rows_for("fig1") == first.rows_for("fig1")
        # The recomputation healed the entry; the next sweep hits again.
        third = run_jobs(jobs, workers=1, cache=cache)
        assert third.manifest.records[0].cached

    def test_run_jobs_recomputes_over_a_non_object_entry(self, tmp_path):
        # A ``[]`` entry used to abort the sweep at cache lookup, before
        # any cell ran; it is a miss, and the recomputation heals it.
        from repro.runner import expand_grid, run_jobs

        cache = ResultCache(tmp_path / "cache")
        jobs = expand_grid(["fig1"], seeds=[0])
        first = run_jobs(jobs, workers=1, cache=cache)
        (entry,) = list((tmp_path / "cache").glob("??/*.json"))
        entry.write_text("[]")
        second = run_jobs(jobs, workers=1, cache=cache)
        (record,) = second.manifest.records
        assert not record.cached
        assert second.rows_for("fig1") == first.rows_for("fig1")
        assert run_jobs(jobs, workers=1, cache=cache).manifest.records[0].cached

    def test_entry_records_provenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("fig4-delay", 3, {"cycles": 60})
        path = cache.put(
            key, Rows([{"v": 1}]),
            figure="fig4-delay", seed=3, params={"cycles": 60},
        )
        payload = json.loads(path.read_text())
        assert payload["figure"] == "fig4-delay"
        assert payload["seed"] == 3
        assert payload["params"] == {"cycles": 60}
