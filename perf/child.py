"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this once per (workload, pass)::

    python perf/child.py WORKLOAD --seed N --traced 0|1 --workdir DIR
        [--iterations N | --seconds S] [--spans FILE]

It prints one JSON document as its last line of standard output: every
metric with its samples, median and quartiles, the output checks, and
the operations attempted and failed.  The traced pass adds the per-layer
metrics and, with ``--spans``, appends its spans to that file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

from ledger import Ledger, kernel_probes, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed importing the package (``setup_s``).
IMPORT_REPEATS = 5
#: Times each workload's preparation is repeated (``setup_s``).
PREPARE_REPEATS = 3
#: Iterations a time-budgeted pass makes at least, so quartiles exist.
MIN_ITERATIONS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.figures, repro.runner; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(probe.stdout.split()[-1])


def timed(step) -> float:
    start = perf_counter()
    step()
    return perf_counter() - start


def canonical(rows) -> str:
    return json.dumps(list(rows), sort_keys=True)


def summary(samples: list[float], unit: str) -> dict:
    """Median, quartiles and samples; counts keep an exact sample."""
    if len(samples) > 1:
        p25, _, p75 = statistics.quantiles(samples, n=4)
    else:
        p25 = p75 = samples[0]
    median = (
        statistics.median_low(samples) if unit == "count"
        else statistics.median(samples)
    )
    return {
        "median": median, "unit": unit, "p25": p25, "p75": p75,
        "n": len(samples), "samples": samples,
    }


def run_pass(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    prepare_s = statistics.median(
        timed(workload.prepare) for _ in range(PREPARE_REPEATS)
    )
    expected_rows, checks = workload.reference()
    expected = [canonical(rows) for rows in expected_rows]
    probes = kernel_probes() if args.traced else {}
    ledger = Ledger()
    walls: list[float] = []
    counts: list[dict] = []
    attempted = len(checks)
    failed = sum(not check["ok"] for check in checks)
    iterations = args.iterations or workload.iterations

    def more(start: float) -> bool:
        if args.seconds is None:
            return len(walls) < iterations
        return (
            len(walls) < MIN_ITERATIONS
            or perf_counter() - start < args.seconds
        )

    with ledger.installed() if args.traced else nullcontext():
        start = perf_counter()
        while more(start):
            # Collect the previous iteration's garbage outside the timed
            # region, so each iteration starts from the same heap.
            gc.collect()
            scope = ledger.iteration(len(walls)) if args.traced else nullcontext()
            with scope:
                begin = perf_counter()
                output = workload.iterate(args.traced)
                walls.append(perf_counter() - begin)
            cells, iteration_counts = workload.finish(output)
            counts.append(iteration_counts)
            attempted += max(len(cells), len(expected))
            failed += abs(len(cells) - len(expected)) + sum(
                not ok or canonical(rows) != want
                for (ok, rows), want in zip(cells, expected)
            )
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": summary([s + prepare_s for s in imports], "s"),
        "wall_s": summary(walls, "s"),
        "cells_per_s": summary([len(expected) / w for w in walls], "cells/s"),
        "peak_rss_mb": summary([peak_kib / 1024], "MiB"),
        "error_rate": summary([failed / attempted], "ratio"),
    }
    if args.traced:
        for name, (samples, unit) in layer_metrics(
            ledger, walls, counts, probes
        ).items():
            metrics[name] = summary(samples, unit)
        if args.spans:
            with open(args.spans, "a", encoding="utf-8") as out:
                for name, start_s, end_s, parent, iteration in ledger.spans:
                    out.write(json.dumps({
                        "workload": args.workload, "name": name,
                        "start": start_s, "end": end_s, "parent": parent,
                        "iteration": iteration,
                    }) + "\n")
    return {
        "workload": args.workload,
        "traced": args.traced,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "rows_sha256": hashlib.sha256("\n".join(expected).encode()).hexdigest(),
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--spans")
    print(json.dumps(run_pass(parser.parse_args())))


if __name__ == "__main__":
    main()
