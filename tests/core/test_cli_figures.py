"""The figure-regeneration API and CLI."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.figures import (
    Rows,
    fig1,
    fig4_delay,
    fig4_jitter,
    fig5,
    registry,
)


class TestFigureFunctions:
    def test_fig1_rows_match_paper(self):
        rows = fig1()
        assert len(rows) == 13
        assert all(row["occurrences"] == row["paper"] for row in rows)

    def test_fig4_delay_rows(self):
        rows = fig4_delay(cycles=60)
        assert {row["variant"] for row in rows} == {
            "Base", "TS", "TS-TS", "TS-RB", "TS-OW", "TS-D-RB",
        }
        assert all(row["p50_us"] <= row["p99_us"] for row in rows)

    def test_fig4_jitter_rows(self):
        rows = fig4_jitter(flow_counts=(1, 25), cycles=60)
        assert [row["flows"] for row in rows] == [1, 25]

    def test_fig5_rows_cover_three_seconds(self):
        rows = fig5()
        assert len(rows) == 60
        assert rows[0]["to_io"] > 0
        assert rows[-1]["from_vplc1"] == 0
        assert rows[-1]["to_io"] > 0

    def test_registry_complete(self):
        assert set(registry()) == {
            "fig1", "fig4-delay", "fig4-jitter", "fig5", "fig6",
        }


class TestRendering:
    def test_csv_round_trip(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        text = Rows(rows).to_csv()
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_empty_rows(self):
        assert Rows([]).to_csv() == ""
        assert Rows([]).to_table() == "(no data)"

    def test_table_contains_headers_and_values(self):
        table = Rows([{"name": "x", "value": 42}]).to_table()
        assert "name" in table and "42" in table


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "fig1" in out

    def test_figure_to_stdout(self, capsys):
        assert main(["fig4-jitter"]) == 0
        out = capsys.readouterr().out
        assert "flows" in out

    def test_figure_to_csv(self, tmp_path, capsys):
        target = tmp_path / "fig1.csv"
        assert main(["fig1", "--csv", str(target)]) == 0
        assert target.exists()
        assert "term_group" in target.read_text().splitlines()[0]

    def test_seed_changes_stochastic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["fig4-jitter", "--csv", str(a), "--seed", "1"])
        main(["fig4-jitter", "--csv", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_closed_stdout_exits_without_a_traceback(self):
        # A pipe whose reader is already gone: the first write fails with
        # EPIPE, as under ``repro list | head -1`` once head has exited.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).resolve().parent.parent),
            env.get("PYTHONPATH"),
        ]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "list"], env=env,
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr, done.stderr
        assert done.returncode == 1


class TestCliObservability:
    def test_sweep_positional_figures_with_trace(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        assert main([
            "sweep", "--trace",
            "fig1", "--no-cache", "--jobs", "1",
            "--manifest", str(manifest),
        ]) == 0
        assert list((tmp_path / "trace").glob("*.trace.json"))
        assert manifest.exists()

    def test_obs_renders_summary(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        main([
            "sweep", "--trace",
            "fig4-delay", "--param", "cycles=30",
            "--no-cache", "--jobs", "1", "--manifest", str(manifest),
        ])
        capsys.readouterr()
        assert main(["obs", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "fig4-delay seed=0" in out
        assert "histograms:" in out
        assert "trace: " in out

    def test_obs_notes_plain_manifests(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        main(["sweep", "fig1", "--no-cache", "--jobs", "1",
              "--manifest", str(manifest)])
        capsys.readouterr()
        assert main(["obs", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "no metrics" in out

    def test_obs_missing_manifest_is_friendly(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot read manifest" in err

    def test_sweep_unwritable_trace_dir_is_friendly(self, tmp_path, capsys):
        # A file where the run directory's trace/ sub-directory goes.
        (tmp_path / "trace").write_text("")
        assert main([
            "sweep", "fig1", "--no-cache", "--jobs", "1",
            "--out-dir", str(tmp_path), "--trace",
        ]) == 2
        err = capsys.readouterr().err
        assert "not writable" in err


class TestCliResilience:
    """Degraded sweeps: exit code 3, failure markers, and --resume."""

    @pytest.fixture(autouse=True)
    def demo_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEMO_FAULTS", "1")

    def test_degraded_sweep_exits_3_then_resumes_green(
        self, tmp_path, capsys
    ):
        manifest_path = tmp_path / "manifest.json"
        marker = tmp_path / "fixed"
        argv = [
            "sweep", "faulty-demo", "fig1",
            "--param", f"marker={marker}",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest_path),
        ]
        assert main(list(argv)) == 3
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "--resume" in err
        payload = json.loads(manifest_path.read_text())
        assert payload["schema"] == "repro.runner/manifest/v3"
        assert payload["failed"] == 1

        marker.write_text("")  # "fix" the figure
        assert main(argv + ["--resume", str(manifest_path)]) == 0
        statuses = {
            job["figure"]: job["status"]
            for job in json.loads(manifest_path.read_text())["jobs"]
        }
        assert statuses == {"fig1": "cached", "faulty-demo": "ok"}

    def test_failed_cells_export_a_marker_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main([
            "sweep", "faulty-demo", "fig1", "--no-cache", "--jobs", "1",
            "--out-dir", str(out_dir),
        ]) == 3
        capsys.readouterr()
        (failed_csv,) = out_dir.glob("faulty_demo*.csv")
        reader = csv.DictReader(io.StringIO(failed_csv.read_text()))
        (row,) = list(reader)
        assert row["status"] == "(failed)"
        assert "induced failure" in row["error"]
        # the healthy figure's CSV is real data, not a marker
        (ok_csv,) = out_dir.glob("fig1*.csv")
        assert "(failed)" not in ok_csv.read_text()

    def test_demo_figures_stay_out_of_the_registry(self, capsys):
        assert main(["list"]) == 0
        assert "faulty-demo" not in capsys.readouterr().out
