"""Executor backends for the sweep engine.

The engine (:func:`repro.runner.run_jobs`) is backend-agnostic: it
expands grids, serves cache hits, writes manifests/checkpoints and the
lifecycle events — and hands the pending tasks to an :class:`ExecutorBackend` to actually
run.  Three backends ship today:

- :class:`SerialBackend` — in-process, deterministic, pool-free;
- :class:`~repro.runner.backends.local_pool.LocalPoolBackend` — the
  supervised ``ProcessPoolExecutor`` with quarantine-based guilt
  attribution;
- :class:`~repro.runner.backends.subprocess_worker.SubprocessWorkerBackend`
  — ``repro worker`` children over a stdio JSON protocol.

Unless a backend is named, the engine picks one: serial for one worker
or one uncached job without a timeout, the local pool otherwise.

Only the serial backend is imported with this package.
:func:`resolve_backend` imports the other two when a sweep selects them
(by spec, or through the engine's pick), so a process that never runs
a pool loads neither ``multiprocessing`` nor ``concurrent.futures``.

All three honor one contract (retries, timeouts, lifecycle events,
uncharged bystanders), enforced by
``tests/runner/test_backend_conformance.py``.
"""

from .base import (
    BACKEND_AUTO,
    ExecutorBackend,
    charge_failure,
    parse_backend_spec,
    resolve_backend,
)
from .serial import SerialBackend

__all__ = [
    "BACKEND_AUTO",
    "ExecutorBackend",
    "SerialBackend",
    "charge_failure",
    "parse_backend_spec",
    "resolve_backend",
]
