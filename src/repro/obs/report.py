"""Cross-run reports: one document per sweep, built from its artifacts.

A finished sweep leaves a trail — the :class:`~repro.runner.manifest.RunManifest`,
per-figure CSV exports, per-job metrics snapshots and telemetry
digests, and chaos verdicts — that previously had to be read by hand.
:func:`build_report` aggregates all of it into a :class:`RunReport`.

The report's content is built once, by :meth:`RunReport.blocks`, as an
ordered list of plain blocks — a heading, a bullet list, a table
(headers plus rows of cells) or a paragraph — and two short emitters
render that list: :meth:`RunReport.to_markdown` as byte-stable markdown
tables and :meth:`RunReport.to_html` as self-contained HTML (inline CSS,
no external assets, good/bad cell colouring).  The sections, in order:

- per-figure **status table** (status / attempts / wall time / verdict),
- **requirement-class verdicts**: each figure's exported rows judged
  against the paper's §2 timing and availability classes, every
  comparison made by :mod:`repro.core.requirements`
  (``admits_latency_ns``, ``admits_jitter_ns``, ``admits``), the same
  "measure, then compare against 3GPP TR 22.804 classes" discipline
  Figs. 4/5 apply in-run,
- **latency/jitter summaries** from embedded metrics histograms,
- a **network telemetry** section (flight-recorder counts, top congested
  queues, per-link utilization) when the sweep ran with ``--telemetry``
  (:mod:`repro.obs.telemetry`),
- a **"Where the time went"** section when the run directory holds the
  sweep's ``sweep.events.jsonl`` or its manifest carries per-job
  timings: the critical-path phase breakdown (queue / spawn / compute /
  retry / checkpoint / idle) from the events plus per-job queue/compute
  timings from the manifest,
- a **failure/retry timeline** from the supervisor's v3 attempt fields,
- **chaos campaign verdicts** when the sweep contained ``chaos-*`` cells.

Determinism: given the same manifest and row files the markdown and HTML
are byte-identical — no timestamps unless the caller passes
``generated_at`` — so reports can be diffed and golden-tested.
"""

from __future__ import annotations

import csv
import html
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.requirements import (
    DATACENTER_TYPICAL,
    INDUSTRIAL_SIX_NINES,
    TIMING_CLASSES,
)
from ..runner.manifest import JobRecord, RunManifest, job_label
from ..simcore.units import MS, US
from .metrics import format_ns, sorted_histogram_items
from .sweeptrace import (
    EVENTS_FILENAME,
    PHASES,
    build_timeline,
    critical_path,
    load_events,
    phase_breakdown,
)

#: Requirement verdict markers (kept ASCII-stable for golden diffs).
MEETS = "meets"
MISSES = "misses"
NO_DATA = "n/a"

#: One unit of report content: ``("h2" | "h3", text)``, ``("ul", items)``,
#: ``("p", text)`` or ``("table", headers, rows)``.
Block = tuple[Any, ...]

#: Figures judged against the timing classes: the exported column holding
#: each row's p99, its unit in ns, and whether it is latency or jitter.
_TIMING_COLUMNS = {
    "fig4-delay": ("p99_us", US, "latency"),
    "fig4-jitter": ("p99_ns", 1, "jitter"),
    "fig6": ("p99_latency_ms", MS, "latency"),
}


def _num(value: Any) -> float | None:
    """Best-effort numeric coercion for CSV-sourced row values."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _fmt_s(value: float) -> str:
    return f"{value:.2f}s"


def _fmt_util(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value * 100:.2f}%"


def _params_text(params: dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(params.items())) or "-"


def _verdict(admitted: bool | None) -> str:
    if admitted is None:
        return NO_DATA
    return MEETS if admitted else MISSES


@dataclass(frozen=True)
class RequirementVerdict:
    """One figure judged against one §2 requirement class."""

    figure: str
    requirement: str
    bound: str
    observed: str
    verdict: str  # MEETS / MISSES / NO_DATA


def _timing_verdicts(
    figure: str, observed_ns: float | None, observed_text: str, kind: str
) -> list[RequirementVerdict]:
    """Judge a worst-case latency or jitter against every timing class."""
    out = []
    for req in TIMING_CLASSES:
        if kind == "jitter":
            bound_ns, admits = req.max_jitter_ns, req.admits_jitter_ns
        else:
            bound_ns, admits = req.max_latency_ns, req.admits_latency_ns
        out.append(
            RequirementVerdict(
                figure=figure,
                requirement=req.name,
                bound=f"{kind} <= {format_ns(bound_ns)}",
                observed=observed_text,
                verdict=_verdict(
                    None if observed_ns is None else admits(observed_ns)
                ),
            )
        )
    return out


def _worst(rows: list[dict[str, Any]], column: str) -> float | None:
    values = [v for row in rows for v in [_num(row.get(column))] if v is not None]
    return max(values) if values else None


def requirement_verdicts(
    figure: str, rows: list[dict[str, Any]] | None
) -> list[RequirementVerdict]:
    """Judge one figure's rows against the paper's requirement classes.

    Figures without a known mapping (e.g. ``fig1``'s corpus counts)
    return no verdicts; figures with a mapping but no exported rows
    return :data:`NO_DATA` verdicts, so the report still names the
    classes that *would* apply.
    """
    rows = rows or []
    if figure in _TIMING_COLUMNS:
        column, unit_ns, kind = _TIMING_COLUMNS[figure]
        worst = _worst(rows, column)
        worst_ns = worst * unit_ns if worst is not None else None
        text = f"p99 {format_ns(worst_ns)}" if worst_ns is not None else NO_DATA
        return _timing_verdicts(figure, worst_ns, text, kind)
    if figure == "fig5":
        # I/O availability around the switchover: 50 ms bins with zero
        # delivered packets count as downtime.
        bins = [
            _num(row.get("to_io"))
            for row in rows
            if _num(row.get("to_io")) is not None
        ]
        if not bins:
            availability = None
            text = NO_DATA
        else:
            outage = sum(1 for v in bins if v == 0)
            availability = 1.0 - outage / len(bins)
            text = (
                f"I/O availability {availability:.4f} "
                f"({outage * 50}ms outage / {len(bins) * 50}ms)"
            )
        return [
            RequirementVerdict(
                figure=figure,
                requirement=req.name,
                bound=f"availability >= {req.availability:.6f}",
                observed=text,
                verdict=_verdict(
                    None if availability is None else req.admits(availability)
                ),
            )
            for req in (INDUSTRIAL_SIX_NINES, DATACENTER_TYPICAL)
        ]
    return []


def _titled_table(
    level: str, title: str, headers: list[str], rows: list[list[Any]]
) -> list[Block]:
    """A heading and its table, or nothing when there are no rows."""
    return [(level, title), ("table", headers, rows)] if rows else []


@dataclass
class RunReport:
    """Everything :func:`build_report` extracted, ready to render."""

    source: str
    manifest: RunManifest
    rows_by_index: dict[int, list[dict[str, Any]]] = field(
        default_factory=dict
    )
    #: ``sweep.events.jsonl`` events when the run directory holds them
    #: (``None`` otherwise).
    sweep_events: list[dict[str, Any]] | None = None

    # -- derived sections --------------------------------------------------

    def figure_rows(self, figure: str) -> list[dict[str, Any]]:
        """All loaded rows of ok cells of one figure, in job order."""
        rows: list[dict[str, Any]] = []
        for index, record in enumerate(self.manifest.records):
            if record.figure == figure and record.ok:
                rows.extend(self.rows_by_index.get(index, []))
        return rows

    def figures(self) -> list[str]:
        seen: list[str] = []
        for record in self.manifest.records:
            if record.figure not in seen:
                seen.append(record.figure)
        return seen

    def all_requirement_verdicts(self) -> list[RequirementVerdict]:
        out: list[RequirementVerdict] = []
        for figure in self.figures():
            out.extend(
                requirement_verdicts(figure, self.figure_rows(figure))
            )
        return out

    def histogram_summaries(self) -> list[dict[str, Any]]:
        """Per-job histogram stats (count/mean/min/max), stably ordered."""
        out: list[dict[str, Any]] = []
        for record in self.manifest.records:
            histograms = (record.metrics or {}).get("histograms") or {}
            for key, snap in sorted_histogram_items(histograms):
                count = snap.get("count", 0)
                mean = (snap.get("sum", 0) / count) if count else None
                out.append(
                    {
                        "job": job_label(record),
                        "histogram": key,
                        "count": count,
                        "mean_ns": mean,
                        "min_ns": snap.get("min"),
                        "max_ns": snap.get("max"),
                    }
                )
        return out

    def telemetry_records(self) -> list[JobRecord]:
        """Jobs that ran with the in-band telemetry plane active."""
        return [r for r in self.manifest.records if r.telemetry]

    def telemetry_overview(self) -> dict[str, int]:
        """Flight-recorder totals across telemetry jobs."""
        totals = {"jobs": 0, "flight_events": 0, "flight_snapshots": 0}
        for record in self.telemetry_records():
            digest = record.telemetry or {}
            totals["jobs"] += 1
            totals["flight_events"] += digest.get("flight_events", 0)
            totals["flight_snapshots"] += digest.get("flight_snapshots", 0)
        return totals

    def telemetry_queue_rows(self) -> list[dict[str, Any]]:
        """Top congested queues per telemetry job, in job order."""
        out: list[dict[str, Any]] = []
        for record in self.telemetry_records():
            for queue in (record.telemetry or {}).get("top_queues", []):
                out.append({"job": job_label(record), **queue})
        return out

    def telemetry_link_rows(self) -> list[dict[str, Any]]:
        """Per-link utilization per telemetry job, in job order."""
        out: list[dict[str, Any]] = []
        for record in self.telemetry_records():
            for link in (record.telemetry or {}).get("links", []):
                out.append({"job": job_label(record), **link})
        return out

    def timing_records(self) -> list[JobRecord]:
        """Jobs carrying queue/compute timings, in job order."""
        return [
            record
            for record in self.manifest.records
            if record.queue_s is not None or record.compute_s is not None
        ]

    def sweep_phases(self) -> dict[str, float] | None:
        """Critical-path phase breakdown from the sweep trace, if any."""
        if not self.sweep_events:
            return None
        timeline = build_timeline(self.sweep_events)
        return phase_breakdown(critical_path(timeline))

    def retry_timeline(self) -> list[JobRecord]:
        """Jobs that failed, timed out, or needed more than one attempt."""
        return [
            record
            for record in self.manifest.records
            if not record.ok or record.attempts > 1
        ]

    def chaos_records(self) -> list[JobRecord]:
        return [
            record
            for record in self.manifest.records
            if record.figure.startswith("chaos-")
        ]

    # -- content -----------------------------------------------------------

    def blocks(self) -> list[Block]:
        """The report body after its title, in order, for both emitters."""
        m = self.manifest
        out: list[Block] = [
            ("ul", [
                f"jobs: {len(m.records)} ({m.cache_hits} cached, "
                f"{m.cache_misses} computed, {m.failed} failed)",
                f"workers: {m.workers}",
                f"cache dir: {m.cache_dir or '(caching disabled)'}",
                f"wall time: {_fmt_s(m.wall_time_s)}",
            ]),
            ("h2", "Figure status"),
            ("table",
             ["figure", "seed", "params", "status", "attempts", "wall",
              "rows", "verdict"],
             [[r.figure, r.seed, _params_text(r.params), r.status,
               r.attempts, _fmt_s(r.wall_time_s), r.rows, r.verdict or "-"]
              for r in m.records]),
            ("h2", "Requirement classes (paper §2)"),
        ]
        verdicts = self.all_requirement_verdicts()
        if verdicts:
            out.append((
                "table", ["figure", "class", "bound", "observed", "verdict"],
                [[v.figure, v.requirement, v.bound, v.observed, v.verdict]
                 for v in verdicts],
            ))
        else:
            out.append(("p", "No figure in this run maps to a §2 class."))
        out += _titled_table(
            "h2", "Latency / jitter histograms",
            ["job", "histogram", "count", "mean", "min", "max"],
            [[s["job"], s["histogram"], s["count"], format_ns(s["mean_ns"]),
              format_ns(s["min_ns"]), format_ns(s["max_ns"])]
             for s in self.histogram_summaries()],
        )
        if self.telemetry_records():
            totals = self.telemetry_overview()
            out += [
                ("h2", "Network telemetry"),
                ("ul", [
                    f"telemetry jobs: {totals['jobs']}",
                    f"flight recorder: {totals['flight_events']} events, "
                    f"{totals['flight_snapshots']} snapshots",
                ]),
            ]
            out += _titled_table(
                "h3", "Top congested queues",
                ["job", "queue", "max depth", "samples"],
                [[q["job"], q["queue"], q["max_depth"], q["samples"]]
                 for q in self.telemetry_queue_rows()],
            )
            out += _titled_table(
                "h3", "Link utilization",
                ["job", "port", "tx bytes", "busy", "utilization"],
                [[l["job"], l["port"], l["tx_bytes"], format_ns(l["busy_ns"]),
                  _fmt_util(l.get("utilization"))]
                 for l in self.telemetry_link_rows()],
            )
        phases = self.sweep_phases()
        timed = self.timing_records()
        if phases is not None or timed:
            out.append(("h2", "Where the time went"))
        if phases is not None:
            total = sum(phases.values())
            phase_rows = []
            for phase in PHASES:
                seconds = phases.get(phase, 0.0)
                if seconds <= 0 and phase != "compute":
                    continue
                share = (seconds / total * 100) if total else 0.0
                phase_rows.append([phase, _fmt_s(seconds), f"{share:.1f}%"])
            phase_rows.append(["total", _fmt_s(total), "100.0%"])
            out.append(("table", ["phase", "time", "share"], phase_rows))
        if timed:
            out.append((
                "table", ["job", "queue", "compute", "wall", "attempts"],
                [[job_label(r), _fmt_s(r.queue_s or 0.0),
                  _fmt_s(r.compute_s or 0.0), _fmt_s(r.wall_time_s),
                  r.attempts]
                 for r in timed],
            ))
        out.append(("h2", "Failures and retries"))
        timeline = self.retry_timeline()
        if timeline:
            out.append((
                "table", ["job", "status", "attempts", "error"],
                [[job_label(r), r.status, r.attempts, r.error or "-"]
                 for r in timeline],
            ))
        else:
            out.append(("p", "Every job completed on its first attempt."))
        out += _titled_table(
            "h2", "Chaos campaign verdicts",
            ["campaign", "seed", "params", "verdict"],
            [[r.figure, r.seed, _params_text(r.params), r.verdict or r.status]
             for r in self.chaos_records()],
        )
        return out

    # -- emitters ----------------------------------------------------------

    def to_markdown(self, generated_at: str | None = None) -> str:
        """Markdown: one blank line between blocks, pipe tables."""
        parts = [f"# Run report — {self.source}"]
        if generated_at:
            parts.append(f"*Generated {generated_at}.*")
        parts += [_markdown_block(block) for block in self.blocks()]
        return "\n\n".join(parts) + "\n"

    def to_html(self, generated_at: str | None = None) -> str:
        """Self-contained HTML (inline CSS, no external assets)."""
        stamp = (
            f"<p class=\"stamp\">Generated {_esc(generated_at)}.</p>"
            if generated_at
            else ""
        )
        return (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>Run report — {_esc(self.source)}</title>"
            "<style>"
            "body{font-family:system-ui,sans-serif;margin:2rem;"
            "color:#1a1a1a;max-width:70rem}"
            "h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem}"
            "h3{font-size:.95rem;margin-top:1.25rem}"
            "table{border-collapse:collapse;margin:.5rem 0;width:100%}"
            "th,td{border:1px solid #d0d0d0;padding:.25rem .5rem;"
            "text-align:left;font-size:.85rem}"
            "th{background:#f2f2f2}"
            "td.good{background:#e7f5e7}td.bad{background:#fbe5e5}"
            ".stamp{color:#777;font-size:.8rem}"
            "</style></head><body>"
            f"<h1>Run report — {_esc(self.source)}</h1>"
            + stamp
            + "".join(_html_block(block) for block in self.blocks())
            + "</body></html>\n"
        )


def _markdown_row(cells: list[Any]) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def _markdown_block(block: Block) -> str:
    kind = block[0]
    if kind == "table":
        headers, rows = block[1], block[2]
        lines = [_markdown_row(headers), _markdown_row(["---"] * len(headers))]
        lines += [_markdown_row(row) for row in rows]
        return "\n".join(lines)
    if kind == "ul":
        return "\n".join(f"- {item}" for item in block[1])
    if kind == "p":
        return block[1]
    return f"{'#' * int(kind[1])} {block[1]}"


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _html_cell(cell: Any) -> str:
    css = ""
    if cell in ("ok", "cached", MEETS, "pass"):
        css = ' class="good"'
    elif cell in ("failed", "timeout", MISSES, "fail"):
        css = ' class="bad"'
    return f"<td{css}>{_esc(cell)}</td>"


def _html_block(block: Block) -> str:
    kind = block[0]
    if kind == "table":
        head = "".join(f"<th>{_esc(h)}</th>" for h in block[1])
        body = "".join(
            "<tr>" + "".join(_html_cell(cell) for cell in row) + "</tr>"
            for row in block[2]
        )
        return (
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>"
        )
    if kind == "ul":
        items = "".join(f"<li>{_esc(item)}</li>" for item in block[1])
        return f"<ul>{items}</ul>"
    return f"<{kind}>{_esc(block[1])}</{kind}>"


def _load_rows_csv(path: Path) -> list[dict[str, Any]]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _load_rows_chunks(
    chunks: list[str], base: Path
) -> list[dict[str, Any]] | None:
    """Load a streamed record's rows from its JSONL chunk files.

    Each chunk path is tried as written and then relative to the run
    directory (mirroring the ``rows_path`` fallback); any unreadable
    chunk makes the whole record's rows unavailable rather than partial.
    """
    from ..runner.rowstream import iter_chunk_rows

    resolved: list[Path] = []
    for chunk in chunks:
        recorded = Path(chunk)
        for candidate in (
            recorded if recorded.is_absolute() else base / recorded,
            base / recorded.name,
        ):
            if candidate.exists():
                resolved.append(candidate)
                break
        else:
            return None
    try:
        return list(iter_chunk_rows(resolved))
    except (OSError, ValueError):
        return None


def resolve_manifest_path(target: Path | str) -> Path:
    """Accept a run directory or a manifest file path."""
    target = Path(target)
    candidate = target / "manifest.json" if target.is_dir() else target
    if not candidate.exists():
        raise ValueError(
            f"no manifest at {candidate}; pass the sweep's run directory "
            f"(holding manifest.json) or a manifest file written with "
            f"--manifest"
        )
    return candidate


def build_report(target: Path | str) -> RunReport:
    """Aggregate one run directory (or manifest file) into a report.

    Row CSVs referenced by each record's ``rows_path`` are loaded when
    present — tried as written (absolute or relative to the manifest's
    directory) and then by file name inside the run directory, so a run
    directory copied from another machine still reports fully.  Records
    from a streamed sweep (PR-8) that exported no CSV are read from their
    ``row_chunks`` JSONL files instead, with the same as-written /
    by-name fallback.
    """
    manifest_path = resolve_manifest_path(target)
    base = manifest_path.parent
    manifest = RunManifest.load(manifest_path)
    rows_by_index: dict[int, list[dict[str, Any]]] = {}
    for index, record in enumerate(manifest.records):
        if record.rows_path:
            recorded = Path(record.rows_path)
            for candidate in (
                recorded if recorded.is_absolute() else base / recorded,
                base / recorded.name,
            ):
                if candidate.exists():
                    try:
                        rows_by_index[index] = _load_rows_csv(candidate)
                    except (OSError, csv.Error):
                        pass
                    break
        elif record.row_chunks:
            rows = _load_rows_chunks(record.row_chunks, base)
            if rows is not None:
                rows_by_index[index] = rows
    sweep_events = None
    events_path = base / EVENTS_FILENAME
    if events_path.exists():
        try:
            sweep_events = load_events(events_path) or None
        except OSError:
            sweep_events = None
    return RunReport(
        source=base.name or str(base),
        manifest=manifest,
        rows_by_index=rows_by_index,
        sweep_events=sweep_events,
    )
