"""The repro simulator's benchmark of record.

Runs seeded workloads in two passes, each workload in its own fresh
child process, one after another:

- the untraced pass gives the end-to-end metrics (host time, memory,
  failed operations);
- the traced pass wraps each layer's public functions at runtime and
  gives the per-layer metrics.

Usage, from the repository root::

    python perf/run.py [--seed N] [--workload NAME ...] [--out FILE] [--smoke]
    python perf/run.py --workload fig6-heavy --seed 3 --seconds 10 --trace 0

Each metric is printed as ``workload metric value unit``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, and both when
``--trace`` is left out.  ``--out`` writes the full result (samples,
median, quartiles, n and checks per metric) as JSON, and the traced
spans next to it.  ``--seconds`` measures each run for that long in
total instead of a fixed iteration count per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
#: Every invocation given ``--seconds`` ends within this many seconds.
DEADLINE_S = 170.0
#: Per-child limit for fixed-iteration runs.
CHILD_TIMEOUT_S = 900.0
SMOKE_ITERATIONS = 2


def single(value: float, unit: str) -> dict:
    """A metric measured once per run."""
    return {
        "median": value, "unit": unit, "p25": value, "p75": value, "n": 1,
        "samples": [value],
    }


def run_child(
    workload: str, traced: bool, args: argparse.Namespace, workdir: Path,
    seconds: float | None, timeout: float, spans: Path | None,
) -> dict:
    """Run one pass of ``workload`` in a fresh interpreter."""
    command = [
        sys.executable, str(PERF / "child.py"), workload,
        "--seed", str(args.seed), "--traced", str(int(traced)),
        "--workdir", str(workdir / f"{workload}-{int(traced)}"),
    ]
    if args.smoke:
        command += ["--iterations", str(SMOKE_ITERATIONS)]
    elif seconds is not None:
        command += ["--seconds", str(seconds)]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # Its own session, so a timeout can stop the child's workers too.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{workload}: pass timed out after {timeout:.0f} s")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: pass failed (exit {child.returncode})")
    return json.loads(stdout.splitlines()[-1])


def run_workload(
    workload: str, args: argparse.Namespace, workdir: Path, deadline: float,
    spans: Path | None,
) -> dict:
    """Both passes of one workload, merged into one result."""
    passes = (False,) if args.trace == 0 else (False, True)
    seconds = args.seconds / len(passes) if args.seconds else None
    docs = []
    for traced in passes:
        timeout = (
            deadline - time.monotonic() if args.seconds else CHILD_TIMEOUT_S
        )
        docs.append(run_child(
            workload, traced, args, workdir, seconds, timeout, spans
        ))
    untraced = docs[0]
    # End-to-end metrics come from the untraced pass, per-layer ones from
    # the traced pass.
    metrics = dict(untraced["metrics"])
    checks = list(untraced["checks"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    if len(docs) == 2:
        traced = docs[1]
        for name, metric in traced["metrics"].items():
            metrics.setdefault(name, metric)
        metrics["obs.trace_overhead_ratio"] = single(
            traced["metrics"]["wall_s"]["median"]
            / untraced["metrics"]["wall_s"]["median"],
            "ratio",
        )
        identical = traced["rows_sha256"] == untraced["rows_sha256"]
        checks += traced["checks"]
        checks.append({
            "name": "traced rows equal untraced rows", "ok": identical,
            "detail": "" if identical else "row digests differ",
        })
        attempted += traced["attempted"] + 1
        failed += traced["failed"] + (not identical)
        metrics["error_rate"] = single(failed / attempted, "ratio")
    return {
        "metrics": metrics, "checks": checks,
        "attempted": attempted, "failed": failed,
    }


def format_line(workload: str, name: str, metric: dict) -> str:
    line = f"{workload} {name} {metric['median']:.6g} {metric['unit']}"
    if metric["n"] > 1:
        line += f"  p25={metric['p25']:.6g} p75={metric['p75']:.6g} n={metric['n']}"
    return line


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repro benchmark of record."
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable, in order; "
                             "default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure each run for this long in total")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only; 1: report the traced "
                             "pass; default: both")
    parser.add_argument("--out", type=Path, help="write the full result here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ITERATIONS} iterations per workload")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    workloads = args.workload or names
    spans = None
    if args.out is not None:
        spans = args.out.with_name(args.out.stem + ".spans.jsonl")
        spans.unlink(missing_ok=True)
    workdir = ROOT / f".perf-work-{os.getpid()}"
    try:
        results = {
            workload: run_workload(workload, args, workdir, deadline, spans)
            for workload in workloads
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sets = {0: ["end_to_end"], 1: ["per_layer"], None: ["end_to_end", "per_layer"]}
    report = [m["name"] for key in sets[args.trace] for m in declared[key]]
    final: dict[str, dict] = {}
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(format_line(workload, name, metric))
        for check in result["checks"]:
            if not check["ok"]:
                print(f"{workload} check failed: {check['name']}: "
                      f"{check['detail']}", file=sys.stderr)
        prefix = "" if len(results) == 1 else f"{workload}."
        for name in report:
            metric = result["metrics"][name]
            final[prefix + name] = {
                "value": metric["median"], "unit": metric["unit"],
            }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
            "order": workloads, "workloads": results,
        }) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": final,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
