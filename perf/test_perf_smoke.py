"""Smoke test of the benchmark, run with ``pytest perf/``.

Runs ``run.py --smoke`` once (two iterations per workload, both passes)
and checks what it prints and what ``compare.py`` makes of the result.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    run = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines(), json.loads(out.read_text())


def compare(tmp_path: Path, base: dict, new: dict):
    paths = []
    for name, result in (("base.json", base), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(result))
    run = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    verdicts = {
        tuple(line.split()[:2]): line.split()[-1]
        for line in run.stdout.splitlines()
        if line.split()[:1] and line.split()[0] in WORKLOADS
    }
    return run.returncode, verdicts


def tight(result: dict) -> dict:
    """``result`` with every quartile at its median, so verdicts are
    decided by medians alone."""
    result = copy.deepcopy(result)
    for workload in result["workloads"].values():
        for metric in workload["metrics"].values():
            metric["p25"] = metric["p75"] = metric["median"]
    return result


def test_every_declared_metric_is_printed_finite_with_its_unit(smoke):
    lines, _ = smoke
    printed = {}
    for line in lines[:-1]:
        workload, name, value, unit = line.split()[:4]
        printed[workload, name] = (float(value), unit)
    for workload in WORKLOADS:
        for spec in DECLARED["end_to_end"] + DECLARED["per_layer"]:
            value, unit = printed[workload, spec["name"]]
            assert unit == spec["unit"], (workload, spec["name"])
            assert math.isfinite(value), (workload, spec["name"])


def test_no_operation_fails(smoke):
    lines, result = smoke
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    for workload in WORKLOADS:
        assert result["workloads"][workload]["metrics"]["error_rate"]["median"] == 0


def test_compare_calls_identical_results_ok(smoke, tmp_path):
    _, result = smoke
    status, verdicts = compare(tmp_path, tight(result), tight(result))
    assert status == 0
    assert len(verdicts) >= len(WORKLOADS) * len(DECLARED["end_to_end"])
    assert set(verdicts.values()) <= {"ok", "equal"}


def slowed(result: dict, factor: float) -> dict:
    result = copy.deepcopy(result)
    for workload in result["workloads"].values():
        wall = workload["metrics"]["wall_s"]
        wall["median"] = wall["p25"] = wall["p75"] = factor * wall["median"]
    return result


def test_compare_flags_a_slowdown_20_percent_past_the_bound(smoke, tmp_path):
    _, result = smoke
    base = tight(result)
    (bound,) = [m["bound"] for m in DECLARED["end_to_end"] if m["name"] == "wall_s"]
    status, verdicts = compare(tmp_path, base, slowed(base, 1.2 * (1 + bound)))
    assert status == 1
    for workload in WORKLOADS:
        assert verdicts[workload, "wall_s"] == "worse"
        assert verdicts[workload, "setup_s"] == "ok"
    status, verdicts = compare(tmp_path, base, slowed(base, 0.98 * (1 + bound)))
    assert status == 0
    assert {verdicts[w, "wall_s"] for w in WORKLOADS} == {"ok"}
