"""Compare benchmark result files written by ``run.py --out``.

    python perf/compare.py BASE.json NEW.json [NEW.json ...]

The first file is the baseline and every later file is compared with it.
For each end-to-end metric of ``BENCHMARK.json``, and ``error_rate``, on
every workload it prints one row: each side's median and quartiles, then
a verdict:

- ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the metric's bound;
- ``worse`` / ``better``: the new median moved in the metric's bad /
  good direction by more than the bound;
- ``ok``: otherwise.

``error_rate`` has a bound of +0: any increase is worse.  The exact
counts ``simcore.events_executed`` and ``net.switch_hops`` are reported
as equal or changed.  Exits 1 when any row is worse or changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("simcore.events_executed", "net.switch_hops")


def spread(metric: dict) -> float:
    median = metric["median"]
    return (metric["p75"] - metric["p25"]) / abs(median) if median else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    worsening = (new["median"] - base["median"]) / abs(base["median"])
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "ok"


def compare(base: dict, new: dict, declared: dict) -> list[tuple[str, ...]]:
    """One row per (workload, metric) present in both results."""
    rows = []
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        for spec in declared["end_to_end"]:
            name = spec["name"]
            a, b = base_result["metrics"][name], new_result["metrics"][name]
            rows.append((
                workload, name, quartiles(a), quartiles(b),
                f"{100 * (b['median'] / a['median'] - 1):+.1f}%",
                verdict(a, b, spec["better"], spec["bound"]),
            ))
        a = base_result["metrics"]["error_rate"]["median"]
        b = new_result["metrics"]["error_rate"]["median"]
        rows.append((
            workload, "error_rate", f"{a:.4g}", f"{b:.4g}", "",
            "worse" if b > a else "better" if b < a else "ok",
        ))
        for name in EXACT_COUNTS:
            if name in base_result["metrics"] and name in new_result["metrics"]:
                a = base_result["metrics"][name]["median"]
                b = new_result["metrics"][name]["median"]
                rows.append((
                    workload, name, str(a), str(b), "",
                    "equal" if a == b else "changed",
                ))
    return rows


def quartiles(metric: dict) -> str:
    return (
        f"{metric['median']:.4g} [{metric['p25']:.4g}, {metric['p75']:.4g}]"
    )


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python perf/compare.py BASE.json NEW.json [NEW.json ...]",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_path, *new_paths = argv
    base = json.loads(Path(base_path).read_text())
    status = 0
    header = ("workload", "metric", "base median [p25, p75]",
              "new median [p25, p75]", "change", "verdict")
    for new_path in new_paths:
        rows = compare(base, json.loads(Path(new_path).read_text()), declared)
        print(f"{base_path} -> {new_path}")
        widths = [max(len(row[i]) for row in [header, *rows]) for i in range(6)]
        for row in [header, *rows]:
            print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if any(row[-1] in ("worse", "changed") for row in rows):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
