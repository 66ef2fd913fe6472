"""End-to-end sweep tracing: ids, writer, analyzer, and live sweeps.

Three layers of coverage:

- pure functions on synthetic event streams (deterministic ids, the
  critical-path tiling invariant, canonical byte-stability lines);
- live serial sweeps through :func:`repro.runner.run_jobs`, with and
  without a ``sweeptrace=`` file (event sequence, manifest timing
  fields, replay stability);
- a live ``subprocess:2`` sweep proving worker-lifecycle events land and
  each job's own Chrome trace carries the engine's span id for it.
"""

import json

import pytest

from repro.obs.sweeptrace import (
    EVENTS_FILENAME,
    PHASES,
    SWEEPTRACE_SCHEMA,
    SweepTraceRecorder,
    build_timeline,
    critical_path,
    format_timeline,
    job_span_id,
    load_events,
    phase_breakdown,
    resolve_events_path,
    sweep_trace_id,
)
from repro.runner.manifest import RunManifest
from repro.runner import (
    ResultCache,
    SerialBackend,
    make_job,
    run_jobs,
)
from repro.runner.backends.subprocess_worker import SubprocessWorkerBackend

from ..runner.faulty import FLAKY, STEADY, registered
from .events import canonical_lines


class TestDeterministicIds:
    def test_trace_id_ignores_key_order(self):
        assert sweep_trace_id(["b", "a"]) == sweep_trace_id(["a", "b"])

    def test_trace_id_depends_on_keys(self):
        assert sweep_trace_id(["a", "b"]) != sweep_trace_id(["a", "c"])

    def test_span_ids_distinct_per_key(self):
        trace = sweep_trace_id(["a", "b"])
        assert job_span_id(trace, "a") != job_span_id(trace, "b")

    def test_ids_are_short_stable_hex(self):
        trace = sweep_trace_id(["a"])
        assert len(trace) == 16
        int(trace, 16)  # hex or raise
        assert sweep_trace_id(["a"]) == trace


class TestWriterAndLoader:
    def test_emit_drops_none_fields_and_sorts_keys(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = SweepTraceRecorder(["k"], path)
        recorder.job_submitted(0, "fig1", 0, "fig1 seed=0", position=0)
        recorder.attempt_end(0, "ok", wall_s=0.1, pid=None, error=None)
        recorder.finalize(wall_s=0.2)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["ev"] for line in lines] == [
            "sweep_start", "submitted", "queued", "attempt_end", "sweep_end",
        ]
        end = json.loads(lines[3])
        assert "error" not in end and "pid" not in end
        assert "final" not in end  # only the job-ending attempt says so
        for line in lines:
            event = json.loads(line)
            assert list(event) == sorted(event)

    def test_unwritable_path_never_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        recorder = SweepTraceRecorder(["k"], blocker / "sub" / "ev.jsonl")
        recorder.job_submitted(0, "fig1", 0, "fig1 seed=0", position=0)
        recorder.finalize(wall_s=0.0)  # the events are silently dropped

    def test_loader_skips_blank_and_truncated_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"ev":"sweep_start","ts":1.0}\n'
            "\n"
            '{"ev":"submitted","ts":1.1,"job":0}\n'
            '{"ev":"attempt_start","ts":1.2,"jo'  # crash mid-write
        )
        events = load_events(path)
        assert [e["ev"] for e in events] == ["sweep_start", "submitted"]

    def test_resolve_accepts_dir_or_file(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        path.write_text("")
        assert resolve_events_path(tmp_path) == path
        assert resolve_events_path(path) == path

    def test_resolve_missing_names_the_run_directory(self, tmp_path):
        with pytest.raises(ValueError, match="run directory"):
            resolve_events_path(tmp_path)

    def test_canonical_lines_drop_volatile_fields(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('{"ev":"attempt_end","ts":1.5,"job":0,"wall_s":0.4}\n')
        b.write_text('{"ev":"attempt_end","ts":9.9,"job":0,"wall_s":8.8}\n')
        assert canonical_lines(a) == canonical_lines(b)
        assert canonical_lines(a) == ['{"ev":"attempt_end","job":0}']


def retry_scenario():
    """Two attempts of one job with a retry gap, fixed timestamps."""
    return [
        {"ev": "sweep_start", "ts": 100.0, "schema": SWEEPTRACE_SCHEMA,
         "trace": "t0", "total": 1, "workers": 1},
        {"ev": "submitted", "ts": 100.0, "job": 0, "figure": "fig-x",
         "seed": 3, "span": "s0", "key": "k0"},
        {"ev": "queued", "ts": 100.0, "job": 0, "position": 0},
        {"ev": "attempt_start", "ts": 100.1, "job": 0, "figure": "fig-x",
         "attempt": 1},
        {"ev": "attempt_end", "ts": 100.5, "job": 0, "figure": "fig-x",
         "attempt": 1, "outcome": "failed", "wall_s": 0.4},
        {"ev": "retry_scheduled", "ts": 100.5, "job": 0, "figure": "fig-x",
         "attempt": 1, "delay_s": 0.3},
        {"ev": "attempt_start", "ts": 100.8, "job": 0, "figure": "fig-x",
         "attempt": 2},
        {"ev": "attempt_end", "ts": 101.2, "job": 0, "figure": "fig-x",
         "attempt": 2, "outcome": "ok", "wall_s": 0.4},
        {"ev": "sweep_end", "ts": 101.25, "trace": "t0", "ok": 1,
         "failed": 0, "cached": 0, "wall_s": 1.25},
    ]


class TestTimelineModel:
    def test_attempts_matched_and_labelled(self):
        tl = build_timeline(retry_scenario())
        assert tl.trace == "t0"
        assert tl.wall_s == pytest.approx(1.25)
        assert [a.attempt for a in tl.attempts] == [1, 2]
        assert [a.outcome for a in tl.attempts] == ["failed", "ok"]
        assert tl.job_label(0) == "fig-x seed=3"

    def test_labels_name_the_params_of_each_cell(self):
        events = retry_scenario()
        events[1] = dict(events[1], label="fig-x seed=3 cycles=60")
        tl = build_timeline(events)
        assert tl.job_label(0) == "fig-x seed=3 cycles=60"
        assert critical_path(tl)[1].detail == (
            "fig-x seed=3 cycles=60 attempt 1 (failed)"
        )

    def test_interrupted_sweep_closes_open_attempts(self):
        events = retry_scenario()[:-2]  # no final attempt_end, no sweep_end
        tl = build_timeline(events)
        assert tl.attempts[-1].outcome == "unfinished"
        assert tl.attempts[-1].end == tl.t1

    def test_critical_path_classifies_retry_queue_compute(self):
        tl = build_timeline(retry_scenario())
        segments = critical_path(tl)
        kinds = [s.kind for s in segments]
        assert kinds == ["queue", "compute", "retry", "compute", "idle"]
        phases = phase_breakdown(segments)
        assert phases["compute"] == pytest.approx(0.8)
        assert phases["retry"] == pytest.approx(0.3)
        assert phases["queue"] == pytest.approx(0.1)
        assert phases["idle"] == pytest.approx(0.05)

    def test_segments_tile_the_wall_clock_exactly(self):
        tl = build_timeline(retry_scenario())
        segments = critical_path(tl)
        # The tiling invariant: segments abut with no gaps or overlaps,
        # so the phase breakdown sums to the wall time exactly.
        assert segments[0].start == pytest.approx(tl.t0, abs=1e-9)
        assert segments[-1].end == pytest.approx(tl.t1, abs=1e-9)
        for left, right in zip(segments, segments[1:]):
            assert left.end == pytest.approx(right.start, abs=1e-9)
        total = sum(phase_breakdown(segments).values())
        assert total == pytest.approx(tl.wall_s, abs=1e-6)

    def test_phase_breakdown_lists_every_phase(self):
        phases = phase_breakdown(critical_path(build_timeline(
            retry_scenario()
        )))
        assert tuple(phases) == PHASES

    def test_format_timeline_renders_lanes_and_phases(self):
        tl = build_timeline(retry_scenario())
        text = format_timeline(tl)
        assert "Sweep timeline — trace t0" in text
        assert "Where the time went (critical path):" in text
        assert "retry" in text and "compute" in text
        assert "Critical path (5 segment(s)):" in text
        assert "|" in text  # the lane Gantt


class TestSerialSweepTracing:
    def run_sweep(self, tmp_path, name="run"):
        out = tmp_path / name
        out.mkdir()
        with registered(STEADY):
            result = run_jobs(
                [make_job("test-steady", seed=s) for s in range(3)],
                backend=SerialBackend(),
                sweeptrace=out / EVENTS_FILENAME,
            )
        return result, out / EVENTS_FILENAME

    def test_event_sequence_and_schema(self, tmp_path):
        result, events_path = self.run_sweep(tmp_path)
        events = load_events(events_path)
        assert events[0]["ev"] == "sweep_start"
        assert events[0]["schema"] == SWEEPTRACE_SCHEMA
        assert events[-1]["ev"] == "sweep_end"
        kinds = [e["ev"] for e in events]
        assert kinds.count("submitted") == 3
        assert kinds.count("attempt_start") == 3
        assert kinds.count("attempt_end") == 3
        assert all(
            e["outcome"] == "ok" for e in events if e["ev"] == "attempt_end"
        )

    def test_manifest_records_carry_trace_timings(self, tmp_path):
        result, events_path = self.run_sweep(tmp_path)
        for record in result.manifest.records:
            assert record.span is not None
            assert record.queue_s is not None and record.queue_s >= 0
            assert record.compute_s is not None and record.compute_s >= 0
            (timing,) = record.attempt_timings
            assert timing["attempt"] == 1
            assert timing["outcome"] == "ok"
        # Round-trips through manifest JSON (tolerant-read v3 fields).
        from repro.runner.manifest import RunManifest

        reloaded = RunManifest.from_json(result.manifest.to_json())
        assert [r.span for r in reloaded.records] == [
            r.span for r in result.manifest.records
        ]
        assert reloaded.records[0].attempt_timings is not None

    def test_spans_match_events_and_manifest(self, tmp_path):
        result, events_path = self.run_sweep(tmp_path)
        events = load_events(events_path)
        trace = events[0]["trace"]
        by_span = {e["span"]: e for e in events if e["ev"] == "submitted"}
        for record in result.manifest.records:
            assert record.span == job_span_id(trace, record.key)
            assert by_span[record.span]["key"] == record.key

    def test_replays_are_byte_stable_modulo_timing(self, tmp_path):
        _, first = self.run_sweep(tmp_path, "first")
        _, second = self.run_sweep(tmp_path, "second")
        assert canonical_lines(first) == canonical_lines(second)
        assert first.read_text() != ""  # and not vacuously equal

    def test_results_identical_with_tracing_on_or_off(self, tmp_path):
        traced, _ = self.run_sweep(tmp_path)
        with registered(STEADY):
            plain = run_jobs(
                [make_job("test-steady", seed=s) for s in range(3)],
                backend=SerialBackend(),
            )
        for left, right in zip(plain.outcomes, traced.outcomes):
            assert left.rows.to_csv() == right.rows.to_csv()
            assert left.record.key == right.record.key
            assert left.record.span == right.record.span
        assert plain.status["ok"] == traced.status["ok"] == 3

    def test_untraced_sweep_still_records_timings(self):
        # The recorder is the engine's one lifecycle sink whether or not
        # its events go to a file, so every computed record is timed.
        with registered(STEADY):
            result = run_jobs(
                [make_job("test-steady", seed=s) for s in range(2)],
                backend=SerialBackend(),
            )
        for record in result.manifest.records:
            assert record.span is not None
            assert record.queue_s is not None and record.queue_s >= 0
            assert record.compute_s is not None and record.compute_s >= 0
            (timing,) = record.attempt_timings
            assert timing["outcome"] == "ok"

    def test_cache_hits_traced_with_real_service_time(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        events_path = tmp_path / EVENTS_FILENAME
        with registered(STEADY):
            jobs = [make_job("test-steady", seed=s) for s in range(2)]
            run_jobs(jobs, backend=SerialBackend(), cache=cache)
            result = run_jobs(
                jobs, backend=SerialBackend(), cache=cache,
                sweeptrace=events_path,
            )
        hits = [
            e for e in load_events(events_path) if e["ev"] == "cache_hit"
        ]
        assert len(hits) == 2
        for record in result.manifest.records:
            assert record.cached
            assert record.span is not None
            # Satellite fix: the record carries real cache-service time,
            # not the old 0.0 sentinel that skewed ETAs.
            assert record.wall_time_s > 0.0
        tl = build_timeline(load_events(events_path))
        segments = critical_path(tl)
        assert sum(s.dur for s in segments) == pytest.approx(
            tl.wall_s, abs=1e-6
        )

    @pytest.mark.parametrize(
        "cached, run, done",
        [
            (3, 3, [3]),  # all hits: one flush
            (2, 5, [2, 3, 4, 5, 5]),  # hits, each computed job, the end
            (0, 3, [1, 2, 3, 3]),  # cold: each computed job, the end
            (0, 0, [0]),  # empty sweep: the end
        ],
        ids=["all-hit", "mixed", "cold", "empty"],
    )
    def test_checkpoint_events_per_sweep(self, tmp_path, cached, run, done):
        cache = ResultCache(tmp_path / "cache")
        events_path = tmp_path / EVENTS_FILENAME
        with registered(STEADY):
            jobs = [make_job("test-steady", seed=s) for s in range(run)]
            run_jobs(jobs[:cached], backend=SerialBackend(), cache=cache)
            run_jobs(
                jobs, backend=SerialBackend(), cache=cache,
                checkpoint=tmp_path / "manifest.json",
                sweeptrace=events_path,
            )
        events = load_events(events_path)
        kinds = [e["ev"] for e in events]
        assert kinds.count("cache_hit") == cached
        assert [e["done"] for e in events if e["ev"] == "checkpoint"] == done
        if cached:
            # the hits' one flush follows every hit, before any compute
            first = kinds.index("checkpoint")
            assert "cache_hit" not in kinds[first:]
            assert "attempt_start" not in kinds[:first]

    def test_retry_sweep_traces_failed_attempts(self, tmp_path):
        marker = tmp_path / "attempted"
        events_path = tmp_path / EVENTS_FILENAME
        with registered(FLAKY):
            result = run_jobs(
                [make_job("test-flaky", params={"marker": str(marker)})],
                backend=SerialBackend(), retries=1, backoff=0.001,
                sweeptrace=events_path,
            )
        events = load_events(events_path)
        kinds = [e["ev"] for e in events]
        assert kinds.count("attempt_start") == 2
        assert kinds.count("retry_scheduled") == 1
        outcomes = [
            e["outcome"] for e in events if e["ev"] == "attempt_end"
        ]
        assert outcomes == ["failed", "ok"]
        (record,) = result.manifest.records
        assert [t["outcome"] for t in record.attempt_timings] == [
            "failed", "ok",
        ]
        assert record.compute_s == pytest.approx(
            sum(t["wall_s"] for t in record.attempt_timings), abs=1e-6
        )
        tl = build_timeline(events)
        phases = phase_breakdown(critical_path(tl))
        assert phases["retry"] > 0.0


class TestSubprocessSweepTracing:
    def test_worker_events_correlate_with_job_traces(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        events_path = out / EVENTS_FILENAME
        with registered(STEADY):
            result = run_jobs(
                [make_job("test-steady", seed=s) for s in range(3)],
                workers=2,
                backend=SubprocessWorkerBackend(
                    workers=2, preload=["tests.runner.faulty:install"]
                ),
                trace_dir=out / "trace",
                checkpoint=out / "manifest.json",
                sweeptrace=events_path,
            )
        events = load_events(events_path)
        kinds = [e["ev"] for e in events]
        assert "worker_spawn" in kinds and "worker_ready" in kinds
        assert "checkpoint" in kinds
        starts = [e for e in events if e["ev"] == "attempt_start"]
        assert all(e.get("worker") is not None for e in starts)

        tl = build_timeline(events)
        assert tl.backend == "subprocess"
        assert tl.worker_tracks  # per-worker tracks reconstructed
        segments = critical_path(tl)
        total = sum(s.dur for s in segments)
        assert total == pytest.approx(tl.wall_s, abs=1e-6)

        # Each job's child-side runner.job span carries the span id the
        # engine's events and the manifest record give that job — the
        # point of carrying span context across the worker protocol.  The
        # manifest names each trace relative to the run directory.
        engine_spans = {
            e["span"]
            for e in events
            if e["ev"] == "attempt_end" and e["outcome"] == "ok"
        }
        manifest = RunManifest.load(out / "manifest.json")
        assert len(manifest.records) == 3
        for record in manifest.records:
            trace = json.loads((out / record.trace_path).read_text())
            (job_span,) = [
                e for e in trace["traceEvents"] if e["name"] == "runner.job"
            ]
            assert job_span["args"]["span"] == record.span
            assert record.span in engine_spans
        assert {r.span for r in result.manifest.records} == engine_spans

    def test_worker_pid_recorded_on_ok_attempts(self, tmp_path):
        events_path = tmp_path / EVENTS_FILENAME
        with registered(STEADY):
            run_jobs(
                [make_job("test-steady")],
                workers=1,
                backend=SubprocessWorkerBackend(
                    workers=1, preload=["tests.runner.faulty:install"]
                ),
                sweeptrace=events_path,
            )
        (end,) = [
            e for e in load_events(events_path) if e["ev"] == "attempt_end"
        ]
        assert end["outcome"] == "ok"
        assert isinstance(end.get("pid"), int)
