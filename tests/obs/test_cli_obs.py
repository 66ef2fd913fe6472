"""CLI surface of the cross-run observability layer.

``repro report``, ``repro obs tail``, and the v3-aware ``repro obs``
manifest summary — plus the lifecycle events a real ``repro sweep``
leaves in its run directory.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.status import fold_status
from repro.obs.sweeptrace import EVENTS_FILENAME, load_events

from .events import computed, ev, start, write_events

DATA = Path(__file__).parent / "data"


class TestReportCommand:
    def test_report_on_v3_run_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "report", str(DATA / "run_v3"), "--out-dir", str(out),
        ]) == 0
        assert (out / "report.md").exists()
        assert (out / "report.html").exists()
        stdout = capsys.readouterr().out
        assert "requirement-class checks met" in stdout
        # the written files are stamped, the body matches the golden
        body = (out / "report.md").read_text()
        assert "## Figure status" in body
        assert "*Generated " in body

    def test_report_on_v2_manifest_file(self, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(DATA / "run_v2", run_dir)
        assert main(["report", str(run_dir / "manifest.json")]) == 0
        assert (run_dir / "report.html").exists()

    def test_report_missing_run_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert "no manifest at" in err
        assert "Traceback" not in err


class TestObsTail:
    def test_missing_status_is_friendly(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "repro:" in err
        assert "run directory" in err
        assert "Traceback" not in err

    def test_tail_prints_one_status_line(self, tmp_path, capsys):
        write_events(tmp_path / EVENTS_FILENAME, [
            start(2), *computed(0, "fig1 seed=0", wall_s=0.4),
            ev("sweep_end", 0.5, wall_s=0.5),
        ])
        assert main(["obs", "tail", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[1/2] ok=1 cached=0 failed=0" in out

    def test_tail_exit_degraded_on_failures(self, tmp_path, capsys):
        path = write_events(tmp_path / EVENTS_FILENAME, [
            start(1),
            *computed(0, "fig6 seed=0", outcome="failed", error="boom"),
            ev("sweep_end", 0.5, wall_s=0.5),
        ])
        assert main(["obs", "tail", str(path)]) == 3

    def test_follow_polls_past_a_truncated_line_until_sweep_end(
        self, tmp_path, capsys
    ):
        import threading

        path = tmp_path / EVENTS_FILENAME
        events = [start(1), *computed(0, "fig1 seed=0")]
        end = json.dumps(ev("sweep_end", 1.0, wall_s=1.0))
        # The writer is mid-line: half of sweep_end is on disk.
        write_events(path, events, tail=end[:10])

        def finish_line():
            with open(path, "a") as handle:
                handle.write(end[10:] + "\n")

        timer = threading.Timer(0.3, finish_line)
        timer.start()
        try:
            code = main([
                "obs", "tail", str(tmp_path), "--follow",
                "--interval", "0.05",
            ])
        finally:
            timer.cancel()
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # The running line, printed once however often it was polled,
        # then the done line once sweep_end landed.
        assert lines == [
            "[1/1] ok=1 cached=0 failed=0",
            "[1/1] ok=1 cached=0 failed=0 | done in 1.0s",
        ]


class TestObsSummaryV3:
    def test_summary_understands_v3_fields(self, capsys):
        manifest = DATA / "run_v3" / "manifest.json"
        assert main(["obs", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert (
            "4 job(s): 2 ok, 1 cached, 1 failed, 3 retry attempt(s); "
            "1 with observability data"
        ) in out
        assert "fig6 seed=0: FAILED after 3 attempt(s): ValueError: boom" in out
        # histograms listed in sorted key order
        body = out[out.index("histograms:"):]
        assert body.index("fieldbus.cycle_ns") < body.index("net.port.tx_ns")

    def test_summary_reads_v2_manifest(self, capsys):
        manifest = DATA / "run_v2" / "manifest.json"
        assert main(["obs", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "2 job(s): 1 ok, 1 cached, 0 failed" in out
        assert "retry attempt" not in out


class TestSweepHeartbeat:
    def test_sweep_writes_status_next_to_manifest(self, tmp_path):
        manifest = tmp_path / "run" / "manifest.json"
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(manifest),
        ]) == 0
        status = fold_status(
            load_events(tmp_path / "run" / EVENTS_FILENAME)
        )
        assert status["state"] == "done"
        assert status["total"] == 1
        assert status["done"] == 1 and status["ok"] == 1

    def test_sweep_without_run_dir_writes_no_events(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "fig1", "--no-cache", "--jobs", "1"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_progress_lines_are_the_status_fold(self, tmp_path, capsys):
        assert main([
            "sweep", "fig1", "--seeds", "0,1", "--no-cache", "--jobs", "1",
            "--manifest", str(tmp_path / "manifest.json"),
        ]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("  fig1 seed=0: ")
        assert "  [1/2] ok=1 cached=0 failed=0" in err[0]
        assert err[1].startswith("  fig1 seed=1: ")
        assert err[1].endswith("  [2/2] ok=2 cached=0 failed=0")
        # The final line is the same fold 'repro obs tail' reads back.
        assert main(["obs", "tail", str(tmp_path)]) == 0
        tail = capsys.readouterr().out.strip()
        assert err[-1] == f"  {tail}"
        assert tail.startswith("[2/2] ok=2 cached=0 failed=0 | done in")


class TestObsTailFollowReplace:
    def test_follow_survives_atomic_replacement_and_reloads(
        self, tmp_path, capsys
    ):
        import os
        import threading

        path = write_events(tmp_path / EVENTS_FILENAME, [start(1)])

        def replace_with_finished():
            # A second sweep reusing the run directory replaces the file
            # while the follower is mid-poll.
            write_events(tmp_path / "next.jsonl", [
                start(1), *computed(0, "fig1 seed=0", wall_s=0.1),
                ev("sweep_end", 0.2, wall_s=0.2),
            ])
            os.replace(tmp_path / "next.jsonl", path)

        timer = threading.Timer(0.25, replace_with_finished)
        timer.start()
        try:
            code = main([
                "obs", "tail", str(tmp_path), "--follow",
                "--interval", "0.05",
            ])
        finally:
            timer.cancel()
        assert code == 0
        out = capsys.readouterr().out
        # Both generations printed: the running one and the replacement.
        assert "[0/1]" in out
        assert "[1/1] ok=1" in out
        assert "done" in out

    def test_follow_tolerates_briefly_missing_file(self, tmp_path, capsys):
        import threading

        path = write_events(tmp_path / EVENTS_FILENAME, [start(1)])

        def vanish_then_return():
            path.unlink()
            write_events(path, [
                start(1), *computed(0, "fig1 seed=0", wall_s=0.1),
                ev("sweep_end", 0.2, wall_s=0.2),
            ])

        timer = threading.Timer(0.25, vanish_then_return)
        timer.start()
        try:
            code = main([
                "obs", "tail", str(tmp_path), "--follow",
                "--interval", "0.05",
            ])
        finally:
            timer.cancel()
        assert code == 0
        assert "done" in capsys.readouterr().out


class TestTelemetryCli:
    def run_sweep(self, tmp_path, name):
        run_dir = tmp_path / name
        assert main([
            "sweep", "fig5", "--seeds", "0",
            "--param", "duration_ms=600",
            "--jobs", "1", "--no-cache",
            "--manifest", str(run_dir / "manifest.json"),
            "--telemetry",
        ]) == 0
        return run_dir

    def test_sweep_telemetry_writes_artifacts_and_manifest_digest(
        self, tmp_path, capsys
    ):
        run_dir = self.run_sweep(tmp_path, "run")
        capsys.readouterr()
        telemetry_dir = run_dir / "telemetry"
        (snapshot,) = telemetry_dir.iterdir()
        assert snapshot.name.endswith(".telemetry.json")
        job = json.loads(
            (run_dir / "manifest.json").read_text()
        )["jobs"][0]
        assert job["telemetry"]["links"]
        assert job["telemetry"]["top_queues"] is not None
        assert job["telemetry_path"] == f"telemetry/{snapshot.name}"

    def test_telemetry_output_is_byte_stable_for_fixed_seed(self, tmp_path):
        run_a = self.run_sweep(tmp_path, "a")
        run_b = self.run_sweep(tmp_path, "b")
        (file_a,) = (run_a / "telemetry").glob("*.telemetry.json")
        (file_b,) = (run_b / "telemetry").glob("*.telemetry.json")
        assert file_a.read_bytes() == file_b.read_bytes()

    def test_obs_telemetry_and_flight_render(self, tmp_path, capsys):
        run_dir = self.run_sweep(tmp_path, "run")
        capsys.readouterr()
        assert main([
            "obs", "telemetry", str(run_dir / "telemetry"),
        ]) == 0
        out = capsys.readouterr().out
        assert "flight recorder:" in out
        assert "samplers:" in out
        assert main(["obs", "flight", str(run_dir / "telemetry")]) == 0
        assert "snapshots" in capsys.readouterr().out

    def test_obs_telemetry_missing_path_is_friendly(self, tmp_path, capsys):
        assert main(["obs", "telemetry", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "repro:" in err and "Traceback" not in err

    def test_report_includes_network_telemetry_section(
        self, tmp_path, capsys
    ):
        run_dir = self.run_sweep(tmp_path, "run")
        assert main(["report", str(run_dir)]) == 0
        capsys.readouterr()
        assert "## Network telemetry" in (run_dir / "report.md").read_text()


class TestRunDirectory:
    """A traced, telemetered sweep writes one file per fact into its run
    directory, and every reader finds them from the manifest alone."""

    def test_one_file_per_fact_read_from_another_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "sweep", "fig5", "--param", "duration_ms=600", "--out-dir", "R",
            "--trace", "--telemetry", "--no-cache", "--jobs", "1",
        ]) == 0
        run_dir = tmp_path / "R"
        (job,) = json.loads((run_dir / "manifest.json").read_text())["jobs"]
        stem = "fig5.seed0.job0"
        assert sorted(
            str(path.relative_to(run_dir))
            for path in run_dir.rglob("*")
            if path.is_file()
        ) == sorted([
            job["rows_path"],
            "manifest.json",
            EVENTS_FILENAME,
            f"trace/{stem}.trace.json",
            f"telemetry/{stem}.telemetry.json",
        ])
        assert job["trace_path"] == f"trace/{stem}.trace.json"
        assert job["telemetry_path"] == f"telemetry/{stem}.telemetry.json"
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        # The row CSV was found: the availability verdict has data.
        assert "I/O availability" in (run_dir / "report.md").read_text()
        assert main(["obs", str(run_dir)]) == 0
        assert f"trace: {run_dir / job['trace_path']}" in (
            capsys.readouterr().out
        )
        assert main(["obs", "timeline", str(run_dir)]) == 0
        assert main(["obs", "telemetry", str(run_dir / "telemetry")]) == 0
        assert "samplers:" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--trace", "--telemetry"])
    def test_flag_without_run_directory_is_usage_error(
        self, tmp_path, monkeypatch, capsys, flag
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "fig1", "--no-cache", "--jobs", "1", flag]) == 2
        err = capsys.readouterr().err
        assert flag in err and "--out-dir" in err
        assert list(tmp_path.iterdir()) == []


class TestSweepTimelineCli:
    def run_sweep(self, tmp_path, name="run"):
        run_dir = tmp_path / name
        assert main([
            "sweep", "fig1", "--seeds", "0,1",
            "--jobs", "1", "--no-cache",
            "--manifest", str(run_dir / "manifest.json"),
        ]) == 0
        return run_dir

    def test_sweeptrace_writes_events_next_to_manifest(self, tmp_path):
        from repro.obs.sweeptrace import EVENTS_FILENAME, load_events

        run_dir = self.run_sweep(tmp_path)
        events = load_events(run_dir / EVENTS_FILENAME)
        assert events[0]["ev"] == "sweep_start"
        assert events[-1]["ev"] == "sweep_end"
        jobs = json.loads((run_dir / "manifest.json").read_text())["jobs"]
        assert all(job["span"] for job in jobs)
        assert all(job["queue_s"] is not None for job in jobs)

    def test_obs_timeline_renders_phases_and_critical_path(
        self, tmp_path, capsys
    ):
        run_dir = self.run_sweep(tmp_path)
        capsys.readouterr()
        assert main(["obs", "timeline", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Sweep timeline — trace" in out
        assert "Where the time went (critical path):" in out
        assert "compute" in out and "total" in out
        assert "Critical path (" in out

    def test_obs_timeline_without_trace_is_friendly(self, tmp_path, capsys):
        tmp_path.joinpath("manifest.json").write_text("{}")
        assert main(["obs", "timeline", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "run directory" in err
        assert "Traceback" not in err


class TestObsSlowestJobs:
    def test_obs_accepts_run_directory(self, capsys):
        assert main(["obs", str(DATA / "run_v3")]) == 0
        out = capsys.readouterr().out
        assert "4 job(s)" in out

    def test_slowest_jobs_table_ranks_by_wall_time(self, capsys):
        assert main(["obs", str(DATA / "run_v3" / "manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "slowest jobs:" in out
        table = out[out.index("slowest jobs:"):]
        header, *rows = [
            line.strip() for line in table.splitlines()[1:] if line.strip()
        ]
        assert header.split() == ["job", "wall", "attempts", "backend"]
        # non-cached records only, slowest first
        walls = []
        for row in rows[:3]:
            if "s" not in row:
                break
            walls.append(float(row.split()[-3].rstrip("s")))
        assert walls == sorted(walls, reverse=True)


class TestSweepHeartbeatUnperturbed:
    def test_results_unperturbed_by_heartbeat(self, tmp_path, capsys):
        with_events = tmp_path / "a" / "manifest.json"
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(with_events),
        ]) == 0
        assert (tmp_path / "a" / EVENTS_FILENAME).exists()
        capsys.readouterr()
        assert main(["sweep", "fig1", "--no-cache", "--jobs", "1"]) == 0
        a = json.loads(with_events.read_text())["jobs"][0]
        b = json.loads(capsys.readouterr().out)["jobs"][0]
        assert a["key"] == b["key"]  # cache keys unchanged
        assert a["rows"] == b["rows"]
        assert a["span"] == b["span"]
