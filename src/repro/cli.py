"""Command-line interface: regenerate the paper's figures, in parallel.

Usage::

    python -m repro list
    python -m repro fig5 --format json
    python -m repro fig4-delay --csv out/fig4_delay.csv --seed 3 --cycles 100
    python -m repro all --out-dir results/ --jobs 4
    python -m repro sweep --figure fig4-jitter --seeds 0..4 \\
        --param cycles=100,400 --jobs 4 --out-dir sweeps/

``all`` and ``sweep`` fan jobs out over a ``multiprocessing`` pool
(``--jobs``, default: CPU count) and reuse a content-addressed on-disk
result cache (``--cache-dir``, default ``.repro-cache``; disable with
``--no-cache``).  Each writes a JSON run manifest (see
:mod:`repro.runner.manifest`) into its run directory: ``all``'s and
``sweep``'s ``--out-dir`` hold one CSV per job plus ``manifest.json``.
``sweep --manifest FILE`` puts the manifest elsewhere; a sweep with
neither flag prints it to stdout.  Per-job progress goes to stderr.

Observability (see :mod:`repro.obs`)::

    python -m repro sweep fig5 --out-dir run/ --trace --telemetry
    python -m repro obs run/                  # metrics per job
    python -m repro obs telemetry run/telemetry/   # ring samplers
    python -m repro obs flight run/telemetry/      # flight-recorder dumps

Both flags write into the run directory and need one.  ``--trace``
writes one Chrome trace-event JSON per computed job to
``trace/<stem>.trace.json`` (load in Perfetto or ``chrome://tracing``),
where each simulator run is one ``sim.run`` span with its event count,
and embeds metrics snapshots in the manifest, which ``repro obs``
renders as a summary.  ``--telemetry`` turns on bounded time-series
rings (queue depth, link busy time and bytes) and a fault flight
recorder inside every computed job; each job writes
``telemetry/<stem>.telemetry.json`` and embeds a digest in the
manifest, which ``repro report`` renders as a "Network telemetry"
section.  The manifest names both files relative to the run directory.

Chaos campaigns (see :mod:`repro.chaos`) are ``chaos-*`` figures::

    python -m repro chaos list
    python -m repro sweep chaos-link-flaps chaos-maintenance --seeds 0..2 \\
        --param mttr_scale=1,2 --out-dir chaos/
    python -m repro chaos replay chaos/   # re-run each job, diff its rows

Resilient sweeps (see :mod:`repro.runner.supervisor`)::

    python -m repro sweep fig5 fig6 --seeds 0..4 \\
        --timeout 300 --retries 1 --manifest sweep.json
    # ... a cell crashed / the box rebooted?  Rerun only what's missing:
    python -m repro sweep fig5 fig6 --seeds 0..4 \\
        --timeout 300 --retries 1 --resume sweep.json --manifest sweep.json

``--manifest`` is flushed once for all cache hits, then after every
computed job, so an interrupted sweep leaves a valid (partial) manifest
behind.  Failed cells render a ``(failed)`` marker row instead of
aborting the sweep.

Cross-run observability (see :mod:`repro.obs.report`,
:mod:`repro.obs.sweeptrace`, :mod:`repro.obs.status`)::

    python -m repro all --out-dir results/      # results/sweep.events.jsonl
    python -m repro obs tail results/ --follow  # live ok/failed/retry counts
    python -m repro obs timeline results/       # where the sweep's time went
    python -m repro report results/             # report.html + report.md

A sweep with a run directory (``--out-dir``, or the directory of
``--manifest``) writes its lifecycle events there as
``sweep.events.jsonl``; the progress line, ``obs tail`` and ``obs
timeline`` are all folds over those events.

``report`` aggregates a run directory's manifest, row CSVs, metrics, and
verdicts into a self-contained HTML + markdown report.

Exit codes: 0 success, 1 = a job's verdict is ``fail`` (a chaos
campaign missed its availability class; ``chaos replay``: rows differ),
2 usage/argument errors, 3 sweep completed *degraded* (some jobs failed
or timed out; resume with ``--resume``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any

from . import __version__
from .figures import (
    FORMATS,
    FigureSpec,
    UnknownFigureError,
    failure_rows,
    get_spec,
    registry,
)
from .obs.metrics import format_ns, sorted_histogram_items
from .runner import (
    DEFAULT_CACHE_DIR,
    JobRecord,
    ResultCache,
    RunManifest,
    expand_grid,
    run_jobs,
)
from .runner.manifest import job_label

#: Exit code for a sweep that completed but with failed/timed-out jobs.
EXIT_DEGRADED = 3


def _add_resilience_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-job timeout in seconds (default: none)",
    )
    sub.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed job (default: 0)",
    )
    sub.add_argument(
        "--backoff", type=float, default=None, metavar="SEC",
        help="base retry backoff in seconds (default: 0.05, deterministic)",
    )
    sub.add_argument(
        "--resume", type=Path, default=None, metavar="MANIFEST",
        help=(
            "skip cells this earlier run manifest already completed "
            "(their rows are re-served from the cache)"
        ),
    )


def _add_telemetry_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--telemetry", action="store_true",
        help=(
            "enable the in-band network telemetry plane (ring samplers, "
            "flight recorder) and write one telemetry/<stem>.telemetry.json "
            "per computed job into the run directory"
        ),
    )


def _add_cache_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count)",
    )
    sub.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    sub.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; do not read or write the cache",
    )
    sub.add_argument(
        "--backend", default=None, metavar="SPEC",
        help=(
            "executor backend NAME[:WORKERS]: serial, local-pool[:N], or "
            "subprocess:N ('repro worker' children over stdio); default "
            "auto: serial when --jobs or the number of uncached jobs is 1 "
            "and there is no --timeout, local-pool otherwise"
        ),
    )
    sub.add_argument(
        "--stream-rows", nargs="?", const="auto", default=None, metavar="DIR",
        help=(
            "stream job rows through content-addressed chunked JSONL files "
            "instead of the supervising process's memory; DIR defaults to "
            "the cache's row store (so the default needs the cache enabled)"
        ),
    )
    sub.add_argument(
        "--chunk-rows", type=int, default=None, metavar="N",
        help="rows per streamed chunk file (default: 256)",
    )


def _add_chaos_parser(subparsers: argparse._SubParsersAction) -> None:
    """Attach the ``chaos`` subcommand tree to the main parser."""
    chaos = subparsers.add_parser(
        "chaos",
        help=(
            "list the chaos campaigns ('repro sweep chaos-*' runs them) or "
            "replay a sweep's campaigns"
        ),
    )
    actions = chaos.add_subparsers(dest="chaos_command", required=True)
    actions.add_parser(
        "list", help="list the campaigns with predicted availability"
    )
    sub = actions.add_parser(
        "replay",
        help=(
            "re-run every chaos job of a finished sweep and compare its "
            "rows with the stored ones"
        ),
    )
    sub.add_argument(
        "run", type=Path, metavar="RUN",
        help=(
            "run directory (holding manifest.json) from 'repro sweep "
            "--out-dir', or a manifest file"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the figures of 'Data Centers Manufacturing Steel' "
            "(HotNets '25) from the simulation models."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available figures")

    for name, spec in registry().items():
        sub = subparsers.add_parser(name, help=spec.doc)
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        sub.add_argument(
            "--csv", type=Path, default=None,
            help="write the rows to this CSV file instead of printing",
        )
        sub.add_argument(
            "--out", type=Path, default=None,
            help="write the rows to this file in --format",
        )
        sub.add_argument(
            "--format", choices=FORMATS, default="table",
            help="render format (default: table)",
        )
        for param in spec.params:
            sub.add_argument(
                f"--{param.name.replace('_', '-')}",
                dest=param.name, default=None, metavar="V",
                help=f"{param.doc} (default: {param.default})",
            )

    sub = subparsers.add_parser(
        "all", help="regenerate every figure (parallel, cached)"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--out-dir", type=Path, default=Path("results"),
        help="directory receiving one CSV per figure plus manifest.json",
    )
    _add_cache_args(sub)
    _add_resilience_args(sub)
    _add_telemetry_arg(sub)

    sub = subparsers.add_parser(
        "sweep", help="run a (figure x seed x param) grid in parallel"
    )
    sub.add_argument(
        "figures", nargs="*", default=[], metavar="FIGURE",
        help="figures to sweep (default: all figures)",
    )
    sub.add_argument(
        "--figure", action="append", default=None, metavar="NAME",
        help="figure to sweep (repeatable; same as the positional form)",
    )
    sub.add_argument(
        "--seeds", default="0", metavar="LIST",
        help="seeds: comma list '0,1,2' or inclusive range '0..4'",
    )
    sub.add_argument(
        "--param", action="append", default=None, metavar="NAME=V1,V2",
        help=(
            "grid values for one parameter (repeatable); tuple-valued "
            "params use ':' inside one value, e.g. flow_counts=1:5:25"
        ),
    )
    sub.add_argument(
        "--out-dir", type=Path, default=None,
        help=(
            "run directory: one CSV per job plus manifest.json (unless "
            "--manifest names another file)"
        ),
    )
    sub.add_argument(
        "--manifest", type=Path, default=None,
        help=(
            "write the JSON run manifest here (default: manifest.json in "
            "--out-dir, else stdout)"
        ),
    )
    sub.add_argument(
        "--trace", action="store_true",
        help=(
            "enable span tracing and metrics, and write one Chrome "
            "trace-event JSON per computed job to trace/<stem>.trace.json "
            "in the run directory"
        ),
    )
    _add_cache_args(sub)
    _add_resilience_args(sub)
    _add_telemetry_arg(sub)

    subparsers.add_parser(
        "worker",
        help=(
            "run as a stdio job-protocol worker (internal: spawned by the "
            "'subprocess' executor backend)"
        ),
    )

    _add_chaos_parser(subparsers)

    sub = subparsers.add_parser(
        "obs",
        help=(
            "observability: summarize a run manifest, 'tail' a sweep's "
            "status, render a sweep 'timeline', or inspect 'telemetry' / "
            "'flight' snapshots"
        ),
    )
    sub.add_argument(
        "target", metavar="RUN|tail|timeline|telemetry|flight",
        help=(
            "manifest JSON (or run directory) written by 'repro sweep'/"
            "'repro all'; or the literal 'tail' to show a sweep's status "
            "(live with --follow); 'timeline' to render the "
            "control-plane Gantt + critical path; or 'telemetry' / "
            "'flight' to "
            "render *.telemetry.json snapshots written by --telemetry"
        ),
    )
    sub.add_argument(
        "tail_path", nargs="?", type=Path, default=None, metavar="PATH",
        help=(
            "with 'tail' or 'timeline': the sweep's run directory (or its "
            "sweep.events.jsonl); with 'telemetry'/'flight': a "
            ".telemetry.json file or the telemetry directory; default: "
            "current directory"
        ),
    )
    sub.add_argument(
        "--follow", "-f", action="store_true",
        help="with 'tail': keep polling until the sweep finishes",
    )
    sub.add_argument(
        "--interval", type=float, default=0.5, metavar="SEC",
        help="with 'tail --follow': polling interval (default: 0.5)",
    )

    sub = subparsers.add_parser(
        "report",
        help="aggregate a finished run into HTML + markdown reports",
    )
    sub.add_argument(
        "run_dir", type=Path, metavar="RUN_DIR|MANIFEST",
        help=(
            "run directory (holding manifest.json) from 'repro all' / "
            "'repro sweep --out-dir', or a manifest file"
        ),
    )
    sub.add_argument(
        "--out-dir", type=Path, default=None, metavar="DIR",
        help="where report.html / report.md go (default: the run dir)",
    )
    return parser


def parse_seeds(text: str) -> list[int]:
    """Parse ``"0,1,2"`` or the inclusive range ``"0..4"``."""
    text = text.strip()
    if ".." in text:
        first, _, last = text.partition("..")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def parse_param_grid(specs: list[str] | None) -> dict[str, list[str]]:
    """Parse repeated ``NAME=V1,V2`` flags into a grid mapping."""
    grid: dict[str, list[str]] = {}
    for item in specs or []:
        name, sep, values = item.partition("=")
        name = name.strip()
        if not sep or not name or not values:
            raise ValueError(
                f"bad --param {item!r}; expected NAME=V1,V2,..."
            )
        grid.setdefault(name, []).extend(
            part for part in values.split(",") if part.strip()
        )
    return grid


def _cache_from(args: argparse.Namespace) -> ResultCache | None:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(getattr(args, "cache_dir", DEFAULT_CACHE_DIR))


def _print_progress(record: JobRecord, status: dict[str, Any]) -> None:
    """One stderr line per completed job: the job's outcome, then the
    sweep's status fold (counts, running cells, ETA), which already
    counts it."""
    from .obs.status import format_status

    if not record.ok:
        state = (
            f"{record.status.upper()} after "
            f"{record.attempts} attempt(s): {record.error}"
        )
    else:
        state = "cached" if record.cached else f"{record.wall_time_s:.2f}s"
        state += f" ({record.rows} rows)"
        if record.verdict is not None:
            state += f" {record.verdict}"
        if record.attempts > 1:
            state += f" [{record.attempts} attempts]"
    print(
        f"  {job_label(record)}: {state}  {format_status(status)}",
        file=sys.stderr,
    )


def _run_dir_kwargs(
    args: argparse.Namespace, run_dir: Path | None
) -> dict[str, Any]:
    """The run directory's fixed sub-paths: ``sweep.events.jsonl`` always,
    ``trace/`` with ``--trace`` and ``telemetry/`` with ``--telemetry``.
    Without a run directory no file is written, and asking for one is a
    usage error."""
    trace = getattr(args, "trace", False)
    telemetry = getattr(args, "telemetry", False)
    if run_dir is None:
        if trace or telemetry:
            flag = "--trace" if trace else "--telemetry"
            raise ValueError(
                f"{flag} writes into the run directory; give --out-dir "
                f"or --manifest"
            )
        return {}
    from .obs.sweeptrace import EVENTS_FILENAME

    kwargs: dict[str, Any] = {"sweeptrace": run_dir / EVENTS_FILENAME}
    if trace:
        kwargs["trace_dir"] = run_dir / "trace"
    if telemetry:
        kwargs["telemetry_dir"] = run_dir / "telemetry"
    return kwargs


def _resilience_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    resume = getattr(args, "resume", None)
    return {
        "timeout_s": getattr(args, "timeout", None),
        "retries": getattr(args, "retries", 0),
        "backoff": getattr(args, "backoff", None),
        "resume_from": RunManifest.load(resume) if resume else None,
    }


def _backend_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    """Resolve ``--backend`` / ``--stream-rows`` / ``--chunk-rows``."""
    kwargs: dict[str, Any] = {"backend": getattr(args, "backend", None)}
    stream = getattr(args, "stream_rows", None)
    if stream is not None:
        kwargs["stream_rows"] = True if stream == "auto" else Path(stream)
    chunk = getattr(args, "chunk_rows", None)
    if chunk is not None:
        kwargs["chunk_rows"] = chunk
    return kwargs


def _exit_code(result, resume_hint: str) -> int:
    """Print the sweep's final status line and pick the exit code: 3
    (after a resume hint) when the sweep ended degraded, else 1 when a
    completed job's verdict is ``fail``, else 0."""
    from .obs.status import format_status

    print(f"  {format_status(result.status)}", file=sys.stderr)
    if not result.ok:
        print(
            f"repro: {len(result.failures)} of {len(result.outcomes)} "
            f"job(s) failed; completed cells are kept ({resume_hint})",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    failing = sum(
        outcome.record.verdict == "fail" for outcome in result.outcomes
    )
    if failing:
        print(
            f"repro: {failing} of {len(result.outcomes)} job(s) have "
            f"verdict 'fail'",
            file=sys.stderr,
        )
        return 1
    return 0


def _csv_name(record: JobRecord, multi: bool) -> str:
    stem = record.figure.replace("-", "_")
    if not multi:
        return f"{stem}.csv"
    return f"{stem}.seed{record.seed}.{record.key[:8]}.csv"


def _run_figure_command(spec: FigureSpec, args: argparse.Namespace) -> int:
    overrides = {
        param.name: value
        for param in spec.params
        if (value := getattr(args, param.name, None)) is not None
    }
    rows = spec.run(seed=getattr(args, "seed", 0), **overrides)
    csv_path: Path | None = getattr(args, "csv", None)
    out_path: Path | None = getattr(args, "out", None)
    fmt: str = getattr(args, "format", "table") or "table"
    if csv_path is not None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(rows.to_csv())
        print(f"wrote {csv_path} ({len(rows)} rows)")
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rows.render(fmt))
        print(f"wrote {out_path} ({len(rows)} rows)")
    if csv_path is None and out_path is None:
        print(rows.render(fmt))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    out_dir: Path = getattr(args, "out_dir", Path("results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    jobs = expand_grid(list(registry()), seeds=[getattr(args, "seed", 0)])
    result = run_jobs(
        jobs,
        workers=getattr(args, "jobs", None),
        cache=_cache_from(args),
        progress=_print_progress,
        checkpoint=manifest_path,
        **_backend_kwargs(args),
        **_run_dir_kwargs(args, out_dir),
        **_resilience_kwargs(args),
    )
    for outcome in result.outcomes:
        target = out_dir / _csv_name(outcome.record, multi=False)
        if outcome.record.ok:
            target.write_text(outcome.rows.to_csv())
            print(f"wrote {target} ({len(outcome.rows)} rows)")
        else:
            # Partial-figure rendering: a failed cell still exports a
            # placeholder CSV so downstream tooling sees every figure.
            target.write_text(
                failure_rows(
                    outcome.record.figure, outcome.record.error
                ).to_csv()
            )
            print(f"wrote {target} ((failed) marker row)")
        outcome.record.rows_path = target.name
    manifest_path.write_text(result.manifest.to_json() + "\n")
    print(
        f"wrote {manifest_path} "
        f"({result.manifest.cache_hits} cached, "
        f"{result.manifest.cache_misses} computed, "
        f"{result.manifest.failed} failed, "
        f"{result.manifest.wall_time_s:.2f}s)"
    )
    return _exit_code(
        result, f"resume with: repro all --resume {manifest_path}"
    )


def _run_sweep(args: argparse.Namespace) -> int:
    figures = list(getattr(args, "figures", None) or [])
    figures += [
        name
        for name in getattr(args, "figure", None) or []
        if name not in figures
    ]
    if not figures:
        figures = list(registry())
    jobs = expand_grid(
        figures,
        seeds=parse_seeds(getattr(args, "seeds", "0")),
        grid=parse_param_grid(getattr(args, "param", None)),
    )
    out_dir: Path | None = getattr(args, "out_dir", None)
    manifest_path: Path | None = getattr(args, "manifest", None)
    if manifest_path is None and out_dir is not None:
        manifest_path = out_dir / "manifest.json"
    run_dir = out_dir
    if manifest_path is not None:
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        run_dir = run_dir or manifest_path.parent
    run_dir_kwargs = _run_dir_kwargs(args, run_dir)
    result = run_jobs(
        jobs,
        workers=getattr(args, "jobs", None),
        cache=_cache_from(args),
        progress=_print_progress,
        checkpoint=manifest_path,
        **_backend_kwargs(args),
        **run_dir_kwargs,
        **_resilience_kwargs(args),
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for outcome in result.outcomes:
            target = out_dir / _csv_name(outcome.record, multi=True)
            rows = (
                outcome.rows
                if outcome.record.ok
                else failure_rows(
                    outcome.record.figure, outcome.record.error
                )
            )
            target.write_text(rows.to_csv())
            outcome.record.rows_path = os.path.relpath(
                target, manifest_path.parent
            )
    if manifest_path is not None:
        manifest_path.write_text(result.manifest.to_json() + "\n")
        print(f"wrote {manifest_path}", file=sys.stderr)
    else:
        print(result.manifest.to_json())
    hint = (
        f"resume with: repro sweep ... --resume {manifest_path}"
        if manifest_path is not None
        else "rerun with --out-dir or --manifest to enable --resume"
    )
    return _exit_code(result, hint)


def _run_obs_timeline(args: argparse.Namespace) -> int:
    """``repro obs timeline RUN_DIR``."""
    from .obs import sweeptrace as st

    target = getattr(args, "tail_path", None) or Path(".")
    events_path = st.resolve_events_path(target)
    timeline = st.build_timeline(st.load_events(events_path))
    print(st.format_timeline(timeline, st.critical_path(timeline)))
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    target = getattr(args, "target", None)
    if target == "tail":
        return _run_obs_tail(args)
    if target == "timeline":
        return _run_obs_timeline(args)
    if target == "telemetry":
        return _run_obs_telemetry(args)
    if target == "flight":
        return _run_obs_flight(args)
    path = Path(args.target)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = RunManifest.load(path)
    except OSError as exc:
        raise ValueError(f"cannot read manifest {path}: {exc}") from None
    records = manifest.records
    ok = sum(1 for r in records if r.status == "ok")
    cached = sum(1 for r in records if r.status == "cached")
    retries = sum(max(r.attempts - 1, 0) for r in records)
    observed = [record for record in records if record.metrics]
    summary = (
        f"{path}: {len(records)} job(s): {ok} ok, {cached} cached, "
        f"{manifest.failed} failed"
    )
    if retries:
        summary += f", {retries} retry attempt(s)"
    print(f"{summary}; {len(observed)} with observability data")
    for record in manifest.failures():
        print(
            f"  {job_label(record)}: {record.status.upper()} after "
            f"{record.attempts} attempt(s): {record.error or '?'}"
        )
    slowest = sorted(
        (record for record in records if not record.cached),
        key=lambda record: record.wall_time_s,
        reverse=True,
    )[:5]
    if slowest:
        print("\nslowest jobs:")
        table = [("job", "wall", "attempts", "backend")] + [
            (
                job_label(record),
                f"{record.wall_time_s:.2f}s",
                str(record.attempts),
                record.backend or "-",
            )
            for record in slowest
        ]
        widths = [
            max(len(row[col]) for row in table) for col in range(4)
        ]
        for row in table:
            print(
                "  " + "  ".join(
                    cell.ljust(width) for cell, width in zip(row, widths)
                ).rstrip()
            )
    if not observed:
        print(
            "  (no metrics in this manifest; rerun the sweep with "
            "--trace)"
        )
        return 0
    for record in observed:
        timing = f"{record.wall_time_s:.2f}s"
        if record.attempts > 1:
            timing += f", {record.attempts} attempts"
        print(f"\n{job_label(record)}  [{timing}]")
        if record.trace_path:
            print(f"  trace: {path.parent / record.trace_path}")
        metrics = record.metrics or {}
        counters = metrics.get("counters") or {}
        histograms = metrics.get("histograms") or {}
        if counters:
            print("  counters:")
            for key in sorted(counters):
                print(f"    {key} = {counters[key]}")
        if histograms:
            print("  histograms:")
            for key, h in sorted_histogram_items(histograms):
                count = h.get("count", 0)
                mean = (h.get("sum", 0) / count) if count else 0.0
                print(
                    f"    {key}  count={count} "
                    f"mean={format_ns(mean)} "
                    f"min={format_ns(h.get('min'))} "
                    f"max={format_ns(h.get('max'))}"
                )
    return 0


def _telemetry_snapshots(args: argparse.Namespace):
    """Resolve ``repro obs telemetry|flight PATH`` into snapshot payloads."""
    from .obs.telemetry import load_snapshot, snapshot_paths

    target = getattr(args, "tail_path", None) or Path(".")
    try:
        paths = snapshot_paths(target)
    except FileNotFoundError as exc:
        raise ValueError(str(exc)) from None
    return [(path, load_snapshot(path)) for path in paths]


def _run_obs_telemetry(args: argparse.Namespace) -> int:
    from .obs.telemetry import format_snapshot

    for path, payload in _telemetry_snapshots(args):
        print(format_snapshot(payload, name=path.name))
    return 0


def _run_obs_flight(args: argparse.Namespace) -> int:
    from .obs.telemetry import format_flight

    for path, payload in _telemetry_snapshots(args):
        print(format_flight(payload, name=path.name))
    return 0


def _run_obs_tail(args: argparse.Namespace) -> int:
    """``repro obs tail RUN_DIR [--follow]``: fold the sweep's events
    into one status line; with ``--follow``, re-fold the file each poll
    and print every changed line until the sweep ends."""
    import time

    from .obs.status import STATE_RUNNING, fold_status, format_status
    from .obs.sweeptrace import load_events, resolve_events_path

    target = getattr(args, "tail_path", None) or Path(".")
    follow: bool = getattr(args, "follow", False)
    interval: float = max(getattr(args, "interval", 0.5), 0.05)
    path = resolve_events_path(target)  # friendly ValueError when missing
    last_line: str | None = None
    status: dict[str, Any] = {}
    while True:
        try:
            status = fold_status(load_events(path))
        except (OSError, ValueError):
            # A sweep starting over in the same directory truncates the
            # file, and one starting up may not have written its first
            # line yet; keep polling instead of dying.
            if not follow:
                raise
            time.sleep(interval)
            continue
        line = format_status(status)
        if line != last_line:
            print(line, flush=True)
            last_line = line
        if not follow or status["state"] != STATE_RUNNING:
            break
        time.sleep(interval)
    return EXIT_DEGRADED if status["failed"] else 0


def _run_report(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from .obs.report import MEETS, build_report, resolve_manifest_path

    target: Path = args.run_dir
    manifest_path = resolve_manifest_path(target)  # friendly error on miss
    report = build_report(target)
    out_dir: Path = getattr(args, "out_dir", None) or manifest_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M:%S UTC")
    md_path = out_dir / "report.md"
    html_path = out_dir / "report.html"
    md_path.write_text(report.to_markdown(generated_at=stamp))
    html_path.write_text(report.to_html(generated_at=stamp))
    manifest = report.manifest
    print(f"wrote {html_path}")
    print(f"wrote {md_path}")
    verdicts = report.all_requirement_verdicts()
    met = sum(1 for v in verdicts if v.verdict == MEETS)
    print(
        f"{len(manifest.records)} job(s): {manifest.cache_hits} cached, "
        f"{manifest.cache_misses} computed, {manifest.failed} failed; "
        f"{met}/{len(verdicts)} requirement-class checks met"
    )
    return 0


def dispatch(args: argparse.Namespace) -> int:
    """Execute a parsed (or hand-built) namespace.

    Unknown figure names get a friendly error listing the available
    figures — this is the entry point for callers that bypass
    ``argparse``.
    """
    command = getattr(args, "command", None)
    if command == "list":
        for name, spec in registry().items():
            print(f"{name:12s} {spec.doc}")
        return 0
    if command == "worker":
        # The stdio protocol owns stdout; no friendly-error wrapping — a
        # protocol violation must kill the child visibly.
        from .runner.worker import worker_main

        return worker_main()
    try:
        if command == "all":
            return _run_all(args)
        if command == "sweep":
            return _run_sweep(args)
        if command == "obs":
            return _run_obs(args)
        if command == "report":
            return _run_report(args)
        if command == "chaos":
            from .chaos.cli import dispatch_chaos

            return dispatch_chaos(args)
        spec = get_spec(str(command))
        return _run_figure_command(spec, args)
    except (UnknownFigureError, ValueError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    A reader that closes stdout early (``repro list | head -1``) ends the
    command with exit code 1 instead of a ``BrokenPipeError`` traceback.
    """
    try:
        code = dispatch(build_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; pointing fd 1 at
        # devnull keeps that flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
