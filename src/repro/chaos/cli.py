"""The ``repro chaos`` subcommand: list campaigns, replay a sweep's.

Usage::

    python -m repro chaos list
    python -m repro sweep chaos-link-flaps chaos-correlated --seeds 0..2 \\
        --param mttr_scale=1,2,4 --jobs 4 --out-dir chaos/
    python -m repro chaos replay chaos/

A campaign is a ``chaos-*`` figure, so ``repro sweep`` runs and judges
it (the manifest's per-job ``verdict``; exit 1 when one is ``fail``) and
``repro report`` renders the verdicts.  ``list`` prints each campaign
under that sweepable name with its predicted availability.  ``replay RUN``
re-runs every ok or cached ``chaos-*`` job of a finished sweep from its
``(figure, seed, params)`` and compares every cell of the stored rows --
each carries the cell's outage count, downtime, availability and
outage-interval fingerprint -- with the fresh ones, both rendered as the
CSV export renders them.  It exits 0 when every job matches, 1 on any
mismatch, and 2 when the run holds no chaos rows.

The argument parser lives in :mod:`repro.cli` with every other
subcommand's, so building it loads no chaos code; ``repro.cli`` imports
this module only to dispatch a ``chaos`` command.
"""

from __future__ import annotations

import argparse
import csv
import io
from typing import Any

from ..figures import Rows, get_spec
from ..runner.manifest import job_label
from .spec import CHAOS_PREFIX, chaos_registry


def dispatch_chaos(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro chaos ...`` namespace."""
    command = getattr(args, "chaos_command", None)
    if command == "list":
        return _run_list()
    if command == "replay":
        return _run_replay(args)
    raise ValueError(f"unknown chaos command {command!r}")


def _run_list() -> int:
    for spec in chaos_registry().values():
        scenario = spec.build()
        print(
            f"{spec.figure_name:20s} {spec.doc}  "
            f"[predicted mean availability "
            f"{scenario.predicted_mean_availability():.6f}, "
            f"requirement {scenario.requirement.name}]"
        )
    return 0


def _csv_cells(rows: list[dict[str, Any]]) -> list[dict[str, str]]:
    """``rows`` as the CSV export renders them, read back as strings."""
    return list(csv.DictReader(io.StringIO(Rows(rows).to_csv())))


def _differing_cells(
    stored: list[dict[str, str]], replayed: list[dict[str, str]]
) -> list[str]:
    diffs = []
    if len(stored) != len(replayed):
        diffs.append(f"{len(stored)} stored rows, {len(replayed)} replayed")
    for index, (old, new) in enumerate(zip(stored, replayed)):
        for column in dict.fromkeys([*old, *new]):
            if old.get(column) != new.get(column):
                diffs.append(
                    f"row {index} {column}: stored {old.get(column)!r}, "
                    f"replayed {new.get(column)!r}"
                )
    return diffs


def _run_replay(args: argparse.Namespace) -> int:
    from ..obs.report import build_report

    report = build_report(args.run)  # friendly ValueError on a missing run
    records = [
        (index, record)
        for index, record in enumerate(report.manifest.records)
        if record.ok and record.figure.startswith(CHAOS_PREFIX)
    ]
    if not any(index in report.rows_by_index for index, _ in records):
        raise ValueError(
            f"{args.run} holds no chaos rows to replay; sweep chaos-* "
            f"campaigns with --out-dir DIR and replay DIR"
        )
    mismatched = 0
    for index, record in records:
        label = job_label(record)
        stored = report.rows_by_index.get(index)
        if stored is None:
            diffs = ["no stored rows"]
        else:
            replayed = get_spec(record.figure).run(
                seed=record.seed, **record.params
            )
            diffs = _differing_cells(_csv_cells(stored), _csv_cells(replayed))
        if diffs:
            mismatched += 1
            print(f"replay MISMATCH: {label}")
            for diff in diffs:
                print(f"  {diff}")
        else:
            print(f"replay OK: {label} ({len(stored)} rows)")
    return 1 if mismatched else 0
