"""Smoke test: the quick examples run to completion.

Each example runs as a script in a fresh interpreter, from an empty
working directory, and must exit 0.  ``production_line`` is the one
program outside the tests that drives the ``Pid``, ``Ton``, ``Ctu`` and
``Limit`` function blocks, so this also keeps those blocks exercised the
way a user would run them.

Only examples that finish in about a second are here; together they take
about 4.5 s on a 2-vCPU VM.  ``tsn_scheduling`` (16.5 s, schedule
synthesis with annealing) and ``ml_aware_topology`` (5.2 s, several ML
fabrics under load) stay out, because they would dominate tier-1 time for
code the TSN and ML-network tests already cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = SRC.parent / "examples"

QUICK_EXAMPLES = [
    "instaplc_failover",
    "production_line",
    "quickstart",
    "resilient_sweep",
    "ring_redundancy",
    "traffic_reflection",
]


@pytest.mark.parametrize("name", QUICK_EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
