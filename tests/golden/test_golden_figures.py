"""Golden regression tests: figure summary statistics at a fixed seed.

Each case runs one figure at ``seed=0`` with reduced parameters (seconds,
not minutes) and summarizes the rows into a small JSON document: row
count, column names, and per-column statistics.  The summaries are
compared field-by-field against the snapshots stored next to this file,
so an unintended behavior change in any simulation layer shows up as a
*readable* diff — which fields moved, from what, to what — rather than a
giant rows mismatch.

When a change is intentional, regenerate the snapshots and review the
diff like any other code change::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.figures import get_spec
from repro.runner import Job, run_jobs

GOLDEN_DIR = Path(__file__).parent

#: Figure → (seed, reduced parameters).  Parameters are chosen so the
#: whole golden suite runs in a few seconds while still exercising every
#: simulation layer the figure touches.
CASES = {
    "fig4-delay": {"cycles": 60},
    "fig4-jitter": {"cycles": 60, "flow_counts": (1, 5)},
    "fig5": {"duration_ms": 1000, "crash_ms": 500},
    "fig6": {"duration_ms": 400},
    "chaos-maintenance": {"horizon_s": 1800.0},
    "chaos-link-flaps": {"horizon_s": 600.0},
}
SEED = 0
#: The metrics snapshot of one traced fig5 job at its default parameters.
METRICS_GOLDEN = GOLDEN_DIR / "fig5_metrics.golden.json"


def summarize(rows):
    """Compress rows into the statistics the snapshots store."""
    rows = list(rows)
    columns = sorted({key for row in rows for key in row})
    stats = {}
    for column in columns:
        values = [row[column] for row in rows if column in row]
        if all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values
        ):
            stats[column] = {
                "min": round(float(min(values)), 9),
                "max": round(float(max(values)), 9),
                "mean": round(float(sum(values)) / len(values), 9),
            }
        else:
            stats[column] = {"distinct": len({str(v) for v in values})}
    return {"rows": len(rows), "columns": columns, "stats": stats}


def flatten(prefix, value):
    """Yield ``(dotted.path, leaf)`` pairs for dict-of-dict documents."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from flatten(f"{prefix}.{key}" if prefix else key, child)
    else:
        yield prefix, value


def diff_summaries(golden, measured):
    """Human-readable field-level differences, empty when identical."""
    golden_fields = dict(flatten("", golden))
    measured_fields = dict(flatten("", measured))
    lines = []
    for path in sorted(golden_fields.keys() | measured_fields.keys()):
        want = golden_fields.get(path, "<missing>")
        got = measured_fields.get(path, "<missing>")
        if want != got:
            lines.append(f"  {path}: golden={want!r} measured={got!r}")
    return lines


def golden_path(figure):
    return GOLDEN_DIR / f"{figure.replace('-', '_')}.golden.json"


def compute_summary(figure):
    params = CASES[figure]
    return summarize(get_spec(figure).run(seed=SEED, **params))


@pytest.mark.parametrize("figure", sorted(CASES))
def test_figure_matches_golden_snapshot(figure, update_golden):
    path = golden_path(figure)
    measured = compute_summary(figure)
    if update_golden:
        path.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {path.name}")
    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        f"'pytest tests/golden --update-golden'"
    )
    golden = json.loads(path.read_text())
    differences = diff_summaries(golden, measured)
    assert not differences, (
        f"{figure} diverged from {path.name} "
        f"(if intentional, rerun with --update-golden):\n"
        + "\n".join(differences)
    )


def test_traced_fig5_metrics_match_golden(tmp_path, update_golden):
    # Every counter and histogram of a traced job, as the manifest embeds
    # them: device counts, their per-key sums and the tx-time buckets.
    result = run_jobs([Job("fig5", SEED)], workers=1, trace_dir=tmp_path)
    (record,) = result.manifest.records
    if update_golden:
        METRICS_GOLDEN.write_text(
            json.dumps(record.metrics, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"rewrote {METRICS_GOLDEN.name}")
    golden = json.loads(METRICS_GOLDEN.read_text())
    differences = diff_summaries(golden, record.metrics)
    assert not differences, (
        f"fig5 metrics diverged from {METRICS_GOLDEN.name} "
        f"(if intentional, rerun with --update-golden):\n"
        + "\n".join(differences)
    )


def test_no_orphaned_snapshots():
    # Every stored snapshot must correspond to a live case, so stale
    # files cannot silently rot in the directory.
    expected = {golden_path(figure).name for figure in CASES}
    expected.add(METRICS_GOLDEN.name)
    present = {path.name for path in GOLDEN_DIR.glob("*.golden.json")}
    assert present <= expected, f"orphaned: {sorted(present - expected)}"


class TestComparatorMachinery:
    def test_diff_pinpoints_changed_fields(self):
        golden = {"rows": 3, "stats": {"x": {"mean": 1.0, "max": 2.0}}}
        measured = {"rows": 4, "stats": {"x": {"mean": 1.5, "max": 2.0}}}
        lines = diff_summaries(golden, measured)
        assert any("rows: golden=3 measured=4" in line for line in lines)
        assert any("stats.x.mean" in line for line in lines)
        assert not any("stats.x.max" in line for line in lines)

    def test_diff_reports_missing_fields(self):
        lines = diff_summaries({"a": 1}, {"b": 2})
        assert any("a: golden=1 measured='<missing>'" in line
                   for line in lines)
        assert any("b: golden='<missing>' measured=2" in line
                   for line in lines)

    def test_summarize_separates_numeric_and_labels(self):
        rows = [
            {"value": 1.0, "kind": "a", "ok": True},
            {"value": 3.0, "kind": "b", "ok": True},
        ]
        summary = summarize(rows)
        assert summary["stats"]["value"] == {
            "min": 1.0, "max": 3.0, "mean": 2.0,
        }
        assert summary["stats"]["kind"] == {"distinct": 2}
        # Booleans are labels, not statistics material.
        assert summary["stats"]["ok"] == {"distinct": 1}


def test_chaos_spec_reachable_for_goldens():
    # Guard for the two chaos-backed cases: their names resolve through
    # the figure lookup's chaos fallback.
    assert get_spec("chaos-maintenance").name in CASES
