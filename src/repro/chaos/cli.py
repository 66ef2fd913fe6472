"""The ``repro chaos`` subcommand: run, replay, and report campaigns.

Usage::

    python -m repro chaos list
    python -m repro chaos run link-flaps correlated --seeds 0..2 \\
        --param mttr_scale=1,2,4 --jobs 4 --manifest chaos-manifest.json
    python -m repro chaos run maintenance --campaign-dir campaigns/
    python -m repro chaos replay --scenario link-flaps --seed 7
    python -m repro chaos replay --campaign campaigns/chaos_link_flaps.seed7.*.json
    python -m repro chaos report chaos-manifest.json

``run`` fans campaigns out over the supervised runner (grid sweeps,
result cache, manifest with per-job ``verdict`` entries, plus
``--timeout/--retries/--resume`` fault tolerance; a crashed or hung
campaign job becomes a failed manifest record and exit code 3 instead of
aborting the sweep).  ``replay`` re-executes
a campaign from ``(seed, scenario)`` alone and verifies the per-cell
outage intervals are byte-identical — against a saved campaign file when
given, or against an independent second run otherwise.  ``report``
renders the compliance summary of a run manifest or a campaign file.

The argument parser lives in :mod:`repro.cli` with every other
subcommand's, so building it loads no chaos code; ``repro.cli`` imports
this module only to dispatch a ``chaos`` command.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from ..runner import RunManifest, expand_grid, run_jobs
from ..runner.manifest import job_label
from .engine import CampaignResult, replay_campaign, run_campaign
from .spec import chaos_registry, get_chaos_spec


def dispatch_chaos(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro chaos ...`` namespace."""
    command = getattr(args, "chaos_command", None)
    if command == "list":
        return _run_list()
    if command == "run":
        return _run_run(args)
    if command == "replay":
        return _run_replay(args)
    if command == "report":
        return _run_report(args)
    raise ValueError(f"unknown chaos command {command!r}")


def _run_list() -> int:
    for name, spec in chaos_registry().items():
        scenario = spec.build()
        print(
            f"{name:14s} {spec.doc}  "
            f"[predicted mean availability "
            f"{scenario.predicted_mean_availability():.6f}, "
            f"requirement {scenario.requirement.name}]"
        )
    return 0


def _run_run(args: argparse.Namespace) -> int:
    from ..cli import (
        EXIT_DEGRADED,
        _backend_kwargs,
        _report_done,
        _resilience_kwargs,
        _sweeptrace_kwargs,
        parse_param_grid,
        parse_seeds,
    )
    from ..runner import ResultCache

    names = list(getattr(args, "scenarios", None) or [])
    if not names:
        names = list(chaos_registry())
    figures = [get_chaos_spec(name).figure_name for name in names]
    jobs = expand_grid(
        figures,
        seeds=parse_seeds(getattr(args, "seeds", "0")),
        grid=parse_param_grid(getattr(args, "param", None)),
    )
    cache_dir = getattr(args, "cache_dir", None)
    manifest_path: Path | None = getattr(args, "manifest", None)
    if manifest_path is not None:
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
    result = run_jobs(
        jobs,
        workers=getattr(args, "jobs", None),
        cache=ResultCache(cache_dir) if cache_dir is not None else None,
        checkpoint=manifest_path,
        **_resilience_kwargs(args),
        **_backend_kwargs(args),
        **_sweeptrace_kwargs(
            args, manifest_path.parent if manifest_path is not None else None
        ),
    )
    campaign_dir: Path | None = getattr(args, "campaign_dir", None)
    for outcome in result.outcomes:
        record = outcome.record
        if not record.ok:
            print(
                f"  {job_label(record)}: {record.status.upper()} "
                f"({record.error})"
            )
            continue
        verdict = (record.verdict or "?").upper()
        print(f"  {job_label(record)}: {verdict}")
        if campaign_dir is not None:
            # Recompute inline to obtain the full outage intervals (cheap;
            # rows alone carry only per-cell fingerprints).
            spec = get_chaos_spec(record.figure)
            campaign = spec.run(seed=record.seed, **record.params)
            stem = record.figure.replace("-", "_")
            path = campaign.save(
                campaign_dir
                / f"{stem}.seed{record.seed}.{record.key[:8]}.json"
            )
            print(f"    wrote {path}")
    if manifest_path is not None:
        manifest_path.write_text(result.manifest.to_json() + "\n")
        print(f"wrote {manifest_path}")
    failed = [
        outcome.record
        for outcome in result.outcomes
        if outcome.record.ok and outcome.record.verdict == "fail"
    ]
    crashed = result.failures
    print(
        f"{len(result.outcomes)} campaign(s): "
        f"{len(result.outcomes) - len(failed) - len(crashed)} pass, "
        f"{len(failed)} fail"
        + (f", {len(crashed)} crashed" if crashed else "")
    )
    hint = (
        f"resume with: repro chaos run ... --resume {manifest_path}"
        if manifest_path is not None
        else "rerun with --manifest to enable --resume"
    )
    if not _report_done(result, hint):
        return EXIT_DEGRADED
    if failed and getattr(args, "strict", False):
        return 1
    return 0


def _parse_single_params(specs: list[str] | None) -> dict[str, str]:
    params: dict[str, str] = {}
    for item in specs or []:
        name, sep, value = item.partition("=")
        if not sep or not name.strip() or not value.strip():
            raise ValueError(f"bad --param {item!r}; expected NAME=VALUE")
        params[name.strip()] = value.strip()
    return params


def _run_replay(args: argparse.Namespace) -> int:
    campaign_path: Path | None = getattr(args, "campaign", None)
    if campaign_path is not None:
        reference = CampaignResult.load(campaign_path)
        spec = get_chaos_spec(reference.scenario)
        scenario = spec.build(**reference.params)
    else:
        name = getattr(args, "scenario", None)
        if not name:
            raise ValueError("replay needs --scenario NAME or --campaign FILE")
        spec = get_chaos_spec(name)
        params = _parse_single_params(getattr(args, "param", None))
        scenario = spec.build(**params)
        reference = run_campaign(
            scenario, seed=getattr(args, "seed", 0), params=spec.resolve(params)
        )
    _, report = replay_campaign(scenario, reference)
    print(report.describe())
    return 0 if report.identical else 1


def _format_availability(value: float) -> str:
    return f"{value:.6f}"


def _report_campaign(campaign: CampaignResult) -> int:
    print(
        f"{campaign.scenario} seed={campaign.seed} "
        f"cells={campaign.cells} faults={campaign.faults_injected} "
        f"verdict={campaign.verdict.upper()}"
    )
    print(
        f"  requirement {campaign.requirement} "
        f">= {_format_availability(campaign.required)}; "
        f"analytic tolerance {campaign.tolerance:g}"
    )
    for report in campaign.reports:
        marker = "ok " if report.ok else "FAIL"
        print(
            f"  cell {report.cell}: {marker} "
            f"measured={_format_availability(report.availability)} "
            f"predicted={_format_availability(report.predicted)} "
            f"outages={report.outages} "
            f"downtime={report.downtime_ns / 1e9:.3f}s"
        )
    print(f"  fingerprint {campaign.fingerprint()}")
    return 0


def _report_manifest(manifest: RunManifest, path: Path) -> int:
    judged = [r for r in manifest.records if r.verdict is not None]
    retries = sum(max(r.attempts - 1, 0) for r in manifest.records)
    header = (
        f"{path}: {len(manifest.records)} job(s), "
        f"{len(judged)} with verdicts"
    )
    if manifest.failed:
        header += f", {manifest.failed} crashed/timed out"
    if retries:
        header += f", {retries} retry attempt(s)"
    print(header)
    for record in judged:
        suffix = (
            f" [{record.attempts} attempts]" if record.attempts > 1 else ""
        )
        print(
            f"  {job_label(record)}: "
            f"{(record.verdict or '?').upper()}{suffix}"
        )
    for record in manifest.failures():
        print(
            f"  {job_label(record)}: {record.status.upper()} "
            f"({record.error or '?'})"
        )
    failed = sum(1 for r in judged if r.verdict == "fail")
    print(f"{len(judged) - failed} pass, {failed} fail")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    path: Path = args.path
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if payload.get("schema", "").startswith("repro.chaos/campaign"):
        return _report_campaign(CampaignResult.from_dict(payload))
    return _report_manifest(RunManifest.from_dict(payload), path)
