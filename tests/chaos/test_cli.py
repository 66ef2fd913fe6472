"""Chaos campaigns on the CLI: ``repro sweep chaos-*`` runs and judges
them, ``repro report`` renders their verdicts, and ``repro chaos
list|replay`` lists them and re-checks a sweep's stored rows."""

import csv
import io

from repro.cli import main
from repro.runner import RunManifest


def run_cli(*argv):
    return main(list(argv))


def sweep(*argv):
    return run_cli("sweep", *argv, "--jobs", "1", "--no-cache")


class TestList:
    def test_lists_every_scenario_with_predictions(self, capsys):
        assert run_cli("chaos", "list") == 0
        out = capsys.readouterr().out
        for name in (
            "link-flaps", "plc-crashes", "virt-incident",
            "correlated", "maintenance",
        ):
            assert f"chaos-{name} " in out
        assert "predicted mean availability" in out


class TestRun:
    def test_out_dir_is_a_run_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = sweep(
            "chaos-maintenance", "--seeds", "0,1",
            "--param", "horizon_s=1200", "--out-dir", str(out_dir),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # the manifest went into the run dir
        assert captured.err.count("(4 rows) pass") == 2
        manifest = RunManifest.load(out_dir / "manifest.json")
        assert len(manifest.records) == 2
        assert all(r.verdict == "pass" for r in manifest.records)
        assert len(list(out_dir.glob("chaos_maintenance*.csv"))) == 2
        assert run_cli("report", str(out_dir)) == 0
        assert "## Chaos campaign verdicts" in (
            out_dir / "report.md"
        ).read_text()
        assert run_cli("chaos", "replay", str(out_dir)) == 0
        assert capsys.readouterr().out.count("replay OK") == 2

    def test_failing_verdict_exits_1(self, capsys):
        assert sweep("chaos-virt-incident", "--param", "horizon_s=600") == 1
        assert "verdict 'fail'" in capsys.readouterr().err

    def test_passing_verdicts_exit_0(self):
        assert sweep("chaos-maintenance") == 0

    def test_unknown_scenario_is_a_friendly_error(self, capsys):
        assert sweep("chaos-meteor") == 2
        err = capsys.readouterr().err
        assert "unknown figure 'chaos-meteor'" in err
        assert "chaos-link-flaps" in err


class TestReplay:
    def test_replay_of_a_fresh_sweep_is_ok(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        sweep(
            "chaos-link-flaps", "chaos-plc-crashes", "--seeds", "7",
            "--param", "horizon_s=600", "--out-dir", str(out_dir),
        )
        capsys.readouterr()
        assert run_cli("chaos", "replay", str(out_dir / "manifest.json")) == 0
        out = capsys.readouterr().out
        assert "replay OK: chaos-link-flaps seed=7 cells=4" in out
        assert "replay OK: chaos-plc-crashes seed=7" in out

    def test_replay_flags_divergence(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        sweep(
            "chaos-plc-crashes", "--seeds", "3",
            "--param", "horizon_s=600", "--out-dir", str(out_dir),
        )
        (path,) = out_dir.glob("*.csv")
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        rows[1]["downtime_ns"] = str(int(rows[1]["downtime_ns"]) + 1)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        path.write_text(buffer.getvalue())
        capsys.readouterr()
        assert run_cli("chaos", "replay", str(out_dir)) == 1
        out = capsys.readouterr().out
        assert "replay MISMATCH: chaos-plc-crashes seed=3" in out
        assert "row 1 downtime_ns: stored" in out
        assert out.count("row ") == 1  # only the tampered cell

    def test_replay_reads_streamed_row_chunks(self, tmp_path, capsys):
        manifest = tmp_path / "run" / "manifest.json"
        sweep(
            "chaos-correlated", "--param", "horizon_s=600",
            "--stream-rows", str(tmp_path / "rows"),
            "--manifest", str(manifest),
        )
        assert all(r.row_chunks for r in RunManifest.load(manifest).records)
        capsys.readouterr()
        assert run_cli("chaos", "replay", str(manifest)) == 0
        assert "replay OK: chaos-correlated seed=0" in capsys.readouterr().out

    def test_replay_without_chaos_rows_errors(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        sweep("fig1", "--out-dir", str(out_dir))
        capsys.readouterr()
        assert run_cli("chaos", "replay", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert "no chaos rows" in err and "--out-dir" in err


class TestReport:
    def test_reports_a_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "run" / "manifest.json"
        code = sweep(
            "chaos-maintenance", "chaos-virt-incident",
            "--param", "horizon_s=600", "--manifest", str(manifest_path),
        )
        assert code == 1
        capsys.readouterr()
        assert run_cli("report", str(manifest_path)) == 0
        report = (manifest_path.parent / "report.md").read_text()
        section = report.split("## Chaos campaign verdicts", 1)[1]
        params = "cells=4 horizon_s=600.0 mtbf_scale=1.0 mttr_scale=1.0"
        assert f"| chaos-maintenance | 0 | {params} | pass |" in section
        assert f"| chaos-virt-incident | 0 | {params} | fail |" in section

    def test_missing_file_is_a_friendly_error(self, tmp_path, capsys):
        for command in (["report"], ["chaos", "replay"]):
            assert run_cli(*command, str(tmp_path / "nope.json")) == 2
            assert "no manifest at" in capsys.readouterr().err
