"""RunManifest schema: v3 round-trips, supervision fields, rejection."""

import json

import pytest

from repro import __version__
from repro.runner import MANIFEST_SCHEMA, JobRecord, RunManifest


def v2_record(**overrides):
    base = dict(
        figure="fig5",
        seed=3,
        params={"duration_ms": 1000, "crash_ms": 500},
        key="ab" * 32,
        cached=False,
        wall_time_s=0.52,
        rows=20,
        stats={"events_executed": 1000, "sim_time_ns": 10**9},
        rows_path="results/fig5.csv",
        metrics={"counters": {"net.host.frames{host=io}": 4}},
        trace_path="traces/fig5.trace.json",
        verdict="pass",
    )
    base.update(overrides)
    return JobRecord(**base)


def failed_record(**overrides):
    base = dict(
        figure="fig5",
        seed=1,
        params={},
        key="ef" * 32,
        cached=False,
        wall_time_s=0.1,
        rows=0,
        status="failed",
        error="RuntimeError: boom",
        traceback="Traceback (most recent call last): ...",
        attempts=3,
    )
    base.update(overrides)
    return JobRecord(**base)


class TestRoundTrip:
    def test_v2_record_survives_dict_round_trip(self):
        record = v2_record()
        clone = JobRecord.from_dict(record.as_dict())
        assert clone == record

    def test_v2_manifest_survives_json_round_trip(self, tmp_path):
        manifest = RunManifest(
            workers=4,
            cache_dir=".repro-cache",
            wall_time_s=12.81,
            records=[v2_record(), v2_record(seed=4, cached=True,
                                            verdict="fail")],
        )
        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json())
        loaded = RunManifest.load(path)
        assert loaded.records == manifest.records
        assert loaded.workers == manifest.workers
        assert loaded.cache_dir == manifest.cache_dir
        assert loaded.cache_hits == 1
        assert loaded.cache_misses == 1

    def test_round_trip_preserves_verdicts(self):
        records = [v2_record(verdict=v) for v in ("pass", "fail", None)]
        manifest = RunManifest(workers=1, cache_dir=None, records=records)
        loaded = RunManifest.from_json(manifest.to_json())
        assert [r.verdict for r in loaded.records] == ["pass", "fail", None]

    def test_serialized_schema_and_version_are_current(self):
        payload = json.loads(
            RunManifest(workers=1, cache_dir=None).to_json()
        )
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["version"] == __version__


class TestV3Supervision:
    def test_failed_record_round_trips(self):
        record = failed_record()
        clone = JobRecord.from_dict(record.as_dict())
        assert clone == record
        assert clone.status == "failed"
        assert clone.error == "RuntimeError: boom"
        assert clone.attempts == 3
        assert not clone.ok

    def test_timeout_status_round_trips(self):
        record = failed_record(status="timeout", error="exceeded 5s")
        assert JobRecord.from_dict(record.as_dict()).status == "timeout"

    def test_manifest_counts_failures(self):
        manifest = RunManifest(
            workers=2,
            cache_dir=None,
            records=[v2_record(), failed_record(),
                     failed_record(status="timeout")],
        )
        assert manifest.failed == 2
        assert manifest.degraded
        assert [r.status for r in manifest.failures()] == [
            "failed", "timeout",
        ]
        payload = json.loads(manifest.to_json())
        assert payload["failed"] == 2

    def test_clean_manifest_is_not_degraded(self):
        manifest = RunManifest(
            workers=1, cache_dir=None,
            records=[v2_record(), v2_record(cached=True, status="cached")],
        )
        assert manifest.failed == 0
        assert not manifest.degraded
        assert manifest.failures() == []


class TestRejection:
    @pytest.mark.parametrize(
        "schema", [None, "", "repro.runner/manifest/v0",
                   "repro.runner/manifest/v1", "repro.runner/manifest/v2",
                   "repro.runner/manifest/v4", "something-else"]
    )
    def test_unknown_schemas_rejected_with_readable_list(self, schema):
        payload = {"schema": schema, "jobs": []}
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            RunManifest.from_dict(payload)

    def test_rejection_names_the_readable_schemas(self):
        with pytest.raises(ValueError, match="readable: .*manifest/v3$"):
            RunManifest.from_dict({"schema": "bogus"})
