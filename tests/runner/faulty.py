"""Faulty figure stubs + registration helper for supervisor tests.

The figure functions live in a real module (not a test body) and carry
their state through the filesystem, so they behave identically inline
and inside forked pool workers.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro import figures
from repro.figures import FigureSpec, ParamSpec, Rows


def boom(seed: int = 0) -> Rows:
    """Always raises."""
    raise ValueError(f"boom: intentional failure (seed {seed})")


def sleepy(seed: int = 0, sleep_s: float = 30.0) -> Rows:
    """Sleeps past any test timeout."""
    time.sleep(sleep_s)
    return Rows([{"seed": seed, "slept_s": sleep_s}])


def die(seed: int = 0) -> Rows:
    """Kills the worker process without raising."""
    os._exit(23)


def flaky(seed: int = 0, marker: str = "") -> Rows:
    """Fails on the first attempt, succeeds once ``marker`` exists."""
    if not marker:
        raise RuntimeError("flaky: no marker path, always fails")
    path = Path(marker)
    if path.exists():
        return Rows([{"seed": seed, "attempt": "second"}])
    path.write_text("first attempt happened")
    raise RuntimeError("flaky: first attempt fails")


def steady(seed: int = 0) -> Rows:
    """Always succeeds, cheaply."""
    return Rows([{"seed": seed, "value": seed * 2}])


def wide(seed: int = 0, rows: int = 200, width: int = 8) -> Rows:
    """Deterministically produces ``rows`` rows of ``width`` columns.

    The bulk-data figure for streaming/bounded-memory tests: cheap to
    compute, non-trivial to hold for a whole grid at once.
    """
    return Rows(
        [
            {"seed": seed, "i": i,
             **{f"c{c}": (seed * 31 + i * 7 + c) % 1000
                for c in range(width)}}
            for i in range(rows)
        ]
    )


BOOM = FigureSpec(name="test-boom", doc="always raises", fn=boom)
SLEEPY = FigureSpec(
    name="test-sleepy", doc="sleeps sleep_s", fn=sleepy,
    params=(ParamSpec("sleep_s", 30.0, "sleep duration", parse=float),),
)
DIE = FigureSpec(name="test-die", doc="kills its worker", fn=die)
FLAKY = FigureSpec(
    name="test-flaky", doc="fails once then succeeds", fn=flaky,
    params=(ParamSpec("marker", "", "attempt marker path", parse=str),),
)
STEADY = FigureSpec(name="test-steady", doc="always succeeds", fn=steady)
WIDE = FigureSpec(
    name="test-wide", doc="bulk deterministic rows", fn=wide,
    params=(
        ParamSpec("rows", 200, "rows to produce", parse=int),
        ParamSpec("width", 8, "columns per row", parse=int),
    ),
)

#: Every spec this module defines, for bulk (de)registration.
ALL_SPECS = (BOOM, SLEEPY, DIE, FLAKY, STEADY, WIDE)


@contextmanager
def registered(*specs: FigureSpec):
    """Temporarily add ``specs`` to the figure registry.

    Pool workers are forked after registration (the supervisor prefers
    the ``fork`` start method), so they see the same registry.  Fresh
    ``repro worker`` subprocesses do NOT inherit it — pass
    ``preload=["tests.runner.faulty:install"]`` to the subprocess backend
    so each child re-registers via :func:`install`.
    """
    for spec in specs:
        figures._SPECS[spec.name] = spec
    try:
        yield
    finally:
        for spec in specs:
            figures._SPECS.pop(spec.name, None)


#: Appended to by :func:`mark_preload`; lets protocol tests observe that
#: a worker ran its preload hooks before the first job.
PRELOAD_CALLS: list[str] = []


def mark_preload() -> None:
    """Record that a worker invoked its preload hooks."""
    PRELOAD_CALLS.append("called")


def protocol_compute(payload):
    """Module-level compute for in-process worker-protocol tests.

    Mirrors the engine contract: ``payload -> (index, result_dict)``,
    raising when asked so :func:`repro.runner.supervisor.guard` has an
    exception to convert.
    """
    index, value = payload[0], payload[1]
    if value == "boom":
        raise ValueError("boom from protocol_compute")
    return index, {"status": "ok", "echo": value, "payload": repr(payload)}


def fd1_compute(payload):
    """Like :func:`protocol_compute`, but first writes to fd 1 below
    Python, as a C library or a child process would."""
    os.write(1, b"stray output from a job\n")
    return protocol_compute(payload)


def install() -> None:
    """Idempotently register every faulty spec (subprocess preload hook).

    Invoked inside ``repro worker`` children via the init message's
    ``preload`` entries, where :func:`registered`'s fork-inheritance
    trick cannot reach.
    """
    for spec in ALL_SPECS:
        figures._SPECS[spec.name] = spec
