"""Sweep status: the fold over a sweep's lifecycle events and its readers."""

import pytest

from repro.obs.status import (
    STATE_DEGRADED,
    STATE_DONE,
    STATE_RUNNING,
    StatusFold,
    fold_status,
    format_status,
)
from repro.obs.sweeptrace import (
    EVENTS_FILENAME,
    SweepTraceRecorder,
    load_events,
    resolve_events_path,
)
from repro.runner import SerialBackend, make_job, run_jobs
from repro.runner.supervisor import Task

from ..runner.faulty import FLAKY, STEADY, registered
from .events import computed, ev, start, write_events


class TestSweepStatusWriter:
    """The status a sweep's recorder folds from its own events, in
    memory and from the events file alike."""

    def test_initial_heartbeat_written_on_construction(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        recorder = SweepTraceRecorder(["a", "b", "c", "d"], path)
        status = fold_status(load_events(path))
        assert status == recorder.status.snapshot()
        assert status["state"] == STATE_RUNNING
        assert status["total"] == 4
        assert status["done"] == 0
        assert status["eta_s"] is None

    def test_counts_ok_cached_failed_and_retries(self):
        events = [
            start(3),
            *computed(0, "fig1 seed=0"),
            ev("cache_hit", job=1),
            ev("submitted", job=2, label="fig5 seed=0 x=1"),
            ev("attempt_start", job=2, attempt=1),
        ]
        assert fold_status(events)["current"] == ["fig5 seed=0 x=1"]
        events += [
            ev("attempt_end", job=2, attempt=1, outcome="failed",
               error="boom"),
            ev("retry_scheduled", job=2, attempt=1, delay_s=0.1),
            ev("attempt_start", job=2, attempt=2),
            ev("attempt_end", job=2, attempt=2, outcome="failed",
               error="boom", final=True),
        ]
        status = fold_status(events)
        assert status["done"] == 3
        assert status["ok"] == 1
        assert status["cached"] == 1
        assert status["failed"] == 1
        assert status["retries"] == 1
        assert status["current"] == []
        assert status["last_error"] == "fig5 seed=0 x=1: boom"

    def test_finalize_states(self):
        done = [start(1), *computed(0, "fig1 seed=0"), ev("sweep_end")]
        assert fold_status(done)["state"] == STATE_DONE
        degraded = [
            start(1),
            *computed(0, "fig1 seed=0", outcome="failed", error="x"),
            ev("sweep_end"),
        ]
        assert fold_status(degraded)["state"] == STATE_DEGRADED

    def test_eta_from_computed_durations_only(self):
        fold = StatusFold()
        fold.apply(start(4))
        fold.apply(ev("dispatch", backend="local-pool", workers=2))
        assert fold.eta_s() is None
        fold.apply(ev("cache_hit", job=0))
        assert fold.eta_s() is None  # cache hits carry no signal
        for event in computed(1, "fig1 seed=1", wall_s=2.0):
            fold.apply(event)
        # 2 jobs remain, mean 2.0s, 2 workers -> ~2s
        assert fold.eta_s() == pytest.approx(2.0)

    def test_heartbeat_failure_never_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        recorder = SweepTraceRecorder(["a"], blocker / EVENTS_FILENAME)
        recorder.cache_hit(0, "fig1", 0, wall_s=0.01)  # must not raise
        recorder.finalize(wall_s=0.02)
        # The file is lost; the in-memory fold is not.
        assert recorder.status.snapshot()["state"] == STATE_DONE
        assert recorder.status.snapshot()["cached"] == 1

    def test_no_stale_tmp_files_left_behind(self, tmp_path):
        with registered(STEADY):
            run_jobs(
                [make_job("test-steady", seed=s) for s in range(2)],
                backend=SerialBackend(),
                checkpoint=tmp_path / "manifest.json",
                sweeptrace=tmp_path / EVENTS_FILENAME,
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", EVENTS_FILENAME,
        ]


class TestRetriedJob:
    def test_retried_then_passing_job_never_counts_failed(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        with registered(FLAKY):
            result = run_jobs(
                [make_job("test-flaky",
                          params={"marker": str(tmp_path / "marker")})],
                backend=SerialBackend(), retries=1, backoff=0.001,
                sweeptrace=path,
            )
        events = load_events(path)
        assert [e.get("outcome") for e in events
                if e["ev"] == "attempt_end"] == ["failed", "ok"]
        # Every prefix: what 'repro obs tail' would show mid-sweep.
        for stop in range(1, len(events) + 1):
            assert fold_status(events[:stop])["failed"] == 0, events[stop - 1]
        assert result.status["ok"] == 1
        assert result.status["retries"] == 1
        assert result.status["state"] == STATE_DONE

    def test_recorder_marks_only_the_last_charged_failure_final(self):
        recorder = SweepTraceRecorder(["k"])
        task = Task(index=0, payload=(), key="k", figure="fig1")
        recorder.job_submitted(0, "fig1", 0, "fig1 seed=0", position=0)
        task.attempts = 1
        recorder.handle("start", task)
        recorder.handle("attempt_end", task, {"outcome": "failed"})
        recorder.handle("retry", task, {"delay_s": 0.0})
        assert recorder.status.failed == 0
        task.attempts = 2
        recorder.handle("start", task)
        recorder.handle(
            "attempt_end", task, {"outcome": "timeout", "final": True}
        )
        assert (recorder.status.failed, recorder.status.done) == (1, 1)
        assert recorder.status.last_error == "fig1 seed=0: timeout"


class TestReaders:
    def test_resolve_accepts_file_or_run_dir(self, tmp_path):
        SweepTraceRecorder(["a"], tmp_path / EVENTS_FILENAME)
        assert resolve_events_path(tmp_path) == tmp_path / EVENTS_FILENAME
        assert (
            resolve_events_path(tmp_path / EVENTS_FILENAME)
            == tmp_path / EVENTS_FILENAME
        )

    def test_missing_status_is_a_friendly_error(self, tmp_path):
        with pytest.raises(ValueError, match="repro obs tail"):
            resolve_events_path(tmp_path)
        with pytest.raises(ValueError, match="run directory"):
            resolve_events_path(tmp_path / "nope.jsonl")

    def test_load_validates_schema(self, tmp_path):
        path = write_events(
            tmp_path / "other.jsonl", [ev("submitted", job=0)]
        )
        with pytest.raises(ValueError, match="not a sweep trace"):
            fold_status(load_events(path))

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        with registered(STEADY):
            result = run_jobs(
                [make_job("test-steady", seed=s) for s in range(2)],
                backend=SerialBackend(), sweeptrace=path,
            )
        # The file re-folds to exactly the status the engine returned.
        assert fold_status(load_events(path)) == result.status
        assert result.status["done"] == result.status["total"] == 2


class TestFormatStatus:
    def test_running_line_shows_current_and_eta(self):
        line = format_status(
            {
                "state": STATE_RUNNING,
                "total": 10,
                "done": 4,
                "ok": 3,
                "cached": 1,
                "failed": 0,
                "retries": 0,
                "current": ["fig5 seed=0", "fig6 seed=1", "fig1 seed=2"],
                "eta_s": 42.0,
            }
        )
        assert line.startswith("[4/10] ok=3 cached=1 failed=0")
        assert "running: fig5 seed=0, fig6 seed=1, +1 more" in line
        assert "eta ~42s" in line
        assert "retries" not in line

    def test_done_line_shows_elapsed(self):
        line = format_status(
            {
                "state": STATE_DONE,
                "total": 2,
                "done": 2,
                "ok": 2,
                "cached": 0,
                "failed": 0,
                "retries": 3,
                "elapsed_s": 12.34,
            }
        )
        assert "retries=3" in line
        assert "done in 12.3s" in line

    def test_long_eta_switches_to_minutes(self):
        line = format_status(
            {"state": STATE_RUNNING, "current": [], "eta_s": 300.0}
        )
        assert "eta ~5m" in line
