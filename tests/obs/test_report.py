"""Run reports: aggregation, §2 verdicts, and golden-stable rendering.

The fixture run directories under ``tests/obs/data/`` are checked in —
one v3 manifest (with failures, retries, chaos cells, metrics, and
hot spots) and one minimal v3 manifest converted from a v2-era run (no
failures, no retries) — and the rendered markdown and HTML are
golden-snapshotted under ``tests/golden/``.
Refresh with ``pytest --update-golden``.
"""

from pathlib import Path

import pytest

from repro.obs.report import (
    MEETS,
    MISSES,
    NO_DATA,
    build_report,
    requirement_verdicts,
    resolve_manifest_path,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent.parent / "golden"


def assert_matches_golden(text: str, name: str, update: bool) -> None:
    path = GOLDEN / name
    if update:
        path.write_text(text)
        pytest.skip(f"rewrote {path}")
    assert path.exists(), f"golden {path} missing; run pytest --update-golden"
    assert text == path.read_text(), (
        f"report drifted from {path}; run pytest --update-golden if the "
        f"change is intentional"
    )


class TestRequirementVerdicts:
    def test_fig4_delay_judged_against_timing_classes(self):
        rows = [{"p99_us": "120"}, {"p99_us": "420"}]
        verdicts = requirement_verdicts("fig4-delay", rows)
        by_class = {v.requirement: v.verdict for v in verdicts}
        # worst p99 = 420us: inside machine-tools (500us), outside
        # motion-control (250us), inside process-automation (100ms)
        assert by_class == {
            "machine-tools": MEETS,
            "motion-control": MISSES,
            "process-automation": MEETS,
        }

    def test_fig4_jitter_judged_in_ns(self):
        verdicts = requirement_verdicts("fig4-jitter", [{"p99_ns": "950"}])
        by_class = {v.requirement: v.verdict for v in verdicts}
        # 950ns jitter meets even motion-control's 1us bound
        assert set(by_class.values()) == {MEETS}

    def test_fig5_availability_from_outage_bins(self):
        rows = [{"to_io": "12"}, {"to_io": "0"}, {"to_io": "12"},
                {"to_io": "12"}]
        verdicts = requirement_verdicts("fig5", rows)
        assert {v.requirement for v in verdicts} == {
            "industrial", "datacenter",
        }
        # one dead 50ms bin out of four -> 0.75 availability, misses both
        assert all(v.verdict == MISSES for v in verdicts)
        assert "0.7500" in verdicts[0].observed

    def test_mapped_figure_without_rows_reports_no_data(self):
        verdicts = requirement_verdicts("fig6", [])
        assert verdicts and all(v.verdict == NO_DATA for v in verdicts)

    def test_unmapped_figure_has_no_verdicts(self):
        assert requirement_verdicts("fig1", [{"term": "latency"}]) == []


class TestBuildReport:
    def test_loads_rows_via_rows_path_fallback(self):
        # rows_path entries are bare file names in the fixtures, resolved
        # relative to the manifest's directory.
        report = build_report(DATA / "run_v3")
        assert len(report.figure_rows("fig4-delay")) == 2
        assert len(report.figure_rows("fig5")) == 4
        assert report.figure_rows("fig6") == []  # failed job, no rows

    def test_accepts_manifest_file_or_run_dir(self):
        from_dir = build_report(DATA / "run_v3")
        from_file = build_report(DATA / "run_v3" / "manifest.json")
        assert from_dir.to_markdown() == from_file.to_markdown()

    def test_missing_manifest_is_a_friendly_error(self, tmp_path):
        with pytest.raises(ValueError, match="no manifest at"):
            resolve_manifest_path(tmp_path)

    def test_retry_timeline_covers_failures_and_retried_jobs(self):
        report = build_report(DATA / "run_v3")
        labels = [r.figure for r in report.retry_timeline()]
        assert labels == ["fig6", "chaos-link-flaps"]

    def test_chaos_cells_are_sectioned(self):
        report = build_report(DATA / "run_v3")
        assert [r.figure for r in report.chaos_records()] == [
            "chaos-link-flaps",
        ]

    def test_v2_manifest_reads_without_supervision_fields(self):
        report = build_report(DATA / "run_v2")
        assert [r.status for r in report.manifest.records] == [
            "ok", "cached",
        ]
        assert report.retry_timeline() == []


class TestTelemetrySection:
    """The 'Network telemetry' section from embedded job digests."""

    def test_records_without_telemetry_render_no_section(self):
        report = build_report(DATA / "run_v3")
        assert report.telemetry_records() == []
        assert "Network telemetry" not in report.to_markdown()
        assert "Network telemetry" not in report.to_html()

    def test_overview_sums_across_jobs(self):
        report = build_report(DATA / "run_telemetry")
        totals = report.telemetry_overview()
        assert totals == {
            "jobs": 2,
            "flight_events": 2,
            "flight_snapshots": 1,
        }

    def test_queue_and_link_rows_keep_job_order(self):
        report = build_report(DATA / "run_telemetry")
        queues = report.telemetry_queue_rows()
        assert [q["queue"] for q in queues] == [
            "spine0[3]", "leaf1[0]", "instaplc-switch[0]",
        ]
        links = report.telemetry_link_rows()
        assert links[0]["port"] == "spine0[3]"
        assert links[0]["utilization"] == 0.775

    def test_markdown_renders_tables_and_percentages(self):
        text = build_report(DATA / "run_telemetry").to_markdown()
        assert "## Network telemetry" in text
        assert "- flight recorder: 2 events, 1 snapshots" in text
        assert "| spine0[3] | 17 | 120 |" in text
        assert "77.50%" in text
        # a link without a utilization estimate renders a dash
        assert "| vplc2[0] | 27320 | 218.56us | - |" in text

    def test_html_renders_section(self):
        html = build_report(DATA / "run_telemetry").to_html()
        assert "<h2>Network telemetry</h2>" in html
        assert "<h3>Top congested queues</h3>" in html
        assert "<h3>Link utilization</h3>" in html
        assert "77.50%" in html

    def test_markdown_is_byte_stable(self, update_golden):
        text = build_report(DATA / "run_telemetry").to_markdown()
        assert_matches_golden(
            text, "report_telemetry.golden.md", update_golden
        )


class TestSweepTimelineSection:
    """The 'Where the time went' section from sweep.events.jsonl."""

    def test_runs_without_trace_render_no_section(self):
        report = build_report(DATA / "run_v3")
        assert report.sweep_events is None
        assert report.sweep_phases() is None
        assert "Where the time went" not in report.to_markdown()
        assert "Where the time went" not in report.to_html()

    def test_events_loaded_from_run_dir(self):
        report = build_report(DATA / "run_sweeptrace")
        assert report.sweep_events is not None
        assert report.sweep_events[0]["ev"] == "sweep_start"

    def test_phase_breakdown_sums_to_wall_time(self):
        report = build_report(DATA / "run_sweeptrace")
        phases = report.sweep_phases()
        assert sum(phases.values()) == pytest.approx(1.2, abs=1e-6)
        assert phases["compute"] == pytest.approx(0.75)
        assert phases["retry"] == pytest.approx(0.2)

    def test_markdown_renders_phase_and_job_tables(self):
        text = build_report(DATA / "run_sweeptrace").to_markdown()
        assert "## Where the time went" in text
        assert "| phase | time | share |" in text
        assert "| retry | 0.20s | 16.7% |" in text
        assert "| total | 1.20s | 100.0% |" in text
        assert "| job | queue | compute | wall | attempts |" in text
        assert "| fig5 seed=1 duration_ms=600 | 0.15s | 0.75s | 0.50s | 2 |" in text

    def test_html_renders_section(self):
        html = build_report(DATA / "run_sweeptrace").to_html()
        assert "<h2>Where the time went</h2>" in html
        assert "retry" in html

    def test_job_timings_without_trace_keep_one_blank_line(self):
        # Per-job timings alone still open the section, followed by one
        # blank line like every other heading.
        report = build_report(DATA / "run_sweeptrace")
        report.sweep_events = None
        text = report.to_markdown()
        assert "## Where the time went\n\n| job | queue |" in text
        assert "| phase |" not in text

    def test_markdown_is_byte_stable(self, update_golden):
        text = build_report(DATA / "run_sweeptrace").to_markdown()
        assert_matches_golden(
            text, "report_sweeptrace.golden.md", update_golden
        )


class TestGoldenRendering:
    def test_markdown_is_byte_stable_v3(self, update_golden):
        text = build_report(DATA / "run_v3").to_markdown()
        assert_matches_golden(text, "report_v3.golden.md", update_golden)

    def test_markdown_is_byte_stable_v2(self, update_golden):
        text = build_report(DATA / "run_v2").to_markdown()
        assert_matches_golden(text, "report_v2.golden.md", update_golden)

    @pytest.mark.parametrize(
        "run", ["v2", "v3", "telemetry", "sweeptrace"]
    )
    def test_html_is_byte_stable(self, run, update_golden):
        text = build_report(DATA / f"run_{run}").to_html()
        assert_matches_golden(
            text, f"report_{run}.golden.html", update_golden
        )

    def test_markdown_deterministic_across_builds(self):
        a = build_report(DATA / "run_v3").to_markdown()
        b = build_report(DATA / "run_v3").to_markdown()
        assert a == b

    def test_timestamp_only_with_generated_at(self):
        report = build_report(DATA / "run_v3")
        assert "Generated" not in report.to_markdown()
        stamped = report.to_markdown(generated_at="2026-08-06 12:00 UTC")
        assert "*Generated 2026-08-06 12:00 UTC.*" in stamped

    def test_html_is_self_contained_and_colored(self):
        html = build_report(DATA / "run_v3").to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html and "http" not in html.split("</style>")[0]
        assert '<td class="bad">failed</td>' in html
        assert '<td class="good">ok</td>' in html
        assert "Chaos campaign verdicts" in html

    def test_html_escapes_error_text(self):
        report = build_report(DATA / "run_v3")
        report.manifest.records[2].error = "ValueError: <boom> & bust"
        html = report.to_html()
        assert "&lt;boom&gt; &amp; bust" in html
        assert "<boom>" not in html
