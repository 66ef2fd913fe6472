"""Start-up contract: importing the registry, the runner or the CLI parser
loads no figure model, chaos engine or numpy.

Each check runs in a fresh interpreter, so the exact module set, not
wall time, is the regression signal.  A figure imports its model when it
first runs; the names the benchmark's layer spans wrap stay module-level
callables of :mod:`repro.figures` that the figures call through.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.figures as figures

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: ``repro`` packages a cold start must not load.
MODEL_PACKAGES = (
    "corpus", "ebpf", "hoststack", "instaplc", "mlnet", "reflection",
    "net", "p4", "plc", "fieldbus", "tsn",
    "core", "metrics", "chaos",
)


def loaded_after(code: str) -> list[str]:
    """Module names a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def heavy(modules: list[str]) -> list[str]:
    forbidden = {f"repro.{name}" for name in MODEL_PACKAGES}
    return [
        name for name in modules
        if name.split(".")[0] == "numpy"
        or ".".join(name.split(".")[:2]) in forbidden
    ]


class TestColdStart:
    def test_registry_and_runner_import_no_model(self):
        modules = loaded_after("import repro.figures, repro.runner")
        assert heavy(modules) == []
        assert "repro.runner.engine" in modules

    def test_cli_parser_imports_no_model(self):
        modules = loaded_after(
            "import repro.cli\nrepro.cli.build_parser()"
        )
        assert heavy(modules) == []

    def test_streams_still_yield_numpy_generators(self):
        import numpy as np

        from repro.simcore import Simulator

        stream = Simulator(seed=0).streams.stream("x")
        assert isinstance(stream, np.random.Generator)


#: Figure, tiny parameters, and the ``repro.figures`` names it must call.
LEDGER_NAMES = [
    ("fig1", {}, ("generate_corpus", "analyze_corpus")),
    ("fig4-delay", {"cycles": 10}, ("run_variant_sweep",)),
    ("fig4-jitter", {"flow_counts": (1,), "cycles": 10},
     ("run_flow_scaling",)),
    ("fig5", {"duration_ms": 200, "crash_ms": 100}, ("run_fig5",)),
]


@pytest.mark.parametrize(
    "figure, params, names", LEDGER_NAMES, ids=[f for f, _, _ in LEDGER_NAMES]
)
def test_figures_call_the_wrappable_names(monkeypatch, figure, params, names):
    calls: list[str] = []
    for name in names:
        original = getattr(figures, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(figures, name, spy)
    rows = figures.get_spec(figure).run(seed=0, **params)
    assert rows
    assert sorted(set(calls)) == sorted(names)
