"""Child side of the subprocess backend's stdio job protocol.

``repro worker`` turns a plain child process (spawned by
:class:`~repro.runner.backends.subprocess_worker.SubprocessWorkerBackend`)
into a job executor speaking a line-oriented JSON protocol on
stdin/stdout:

parent → child::

    {"type": "init", "sys_path": [...], "preload": ["mod:callable", ...],
     "compute": "module:qualname"}
    {"type": "job", "payload": [...]}          # any number, sequentially
    {"type": "shutdown"}

child → parent::

    {"type": "ready"}                           # init applied
    {"type": "result", "index": N, "result": {...}}  # one per job

The ``compute`` callable is resolved by qualified name so the protocol
stays data-only (no pickles on the wire, which keeps the child
inspectable with ``jq``).  The payload's trailing element is the
``{"trace": ..., "span": ...}`` span context minted by the engine
(:mod:`repro.obs.sweeptrace`); ``_as_payload`` passes the dict through
untouched and the engine-side ``_compute`` stamps it onto the child's
``runner.job`` Chrome span, which is how child-side spans correlate with
the parent's ``sweep.events.jsonl`` across the process boundary.  ``preload``
entries are imported and called before the first job; they exist because
a fresh child does *not* inherit figure specs registered at runtime in
the parent the way forked pool workers do — a preload hook re-registers
them (see ``tests/runner/faulty.py::install``).

Exceptions inside a job are converted to failure dicts by
:func:`~repro.runner.supervisor.guard` *inside the child*, exactly like
pool workers, so a protocol-level child death can only mean the process
itself died — the classification the parent's supervisor needs.

The protocol owns the real stdout: on startup the worker dups fd 1 for
itself and points both fd 1 and ``sys.stdout`` at stderr, so neither a
``print()`` nor a write below Python (``os.write(1, ...)``, a C library,
a child process) inside a figure can corrupt the message stream.  The
worker closes its protocol stream when the loop ends.

A fresh worker imports the CLI and :mod:`repro.runner` only, not the
figure models: :mod:`repro.figures` imports a figure's model when the
figure first runs, so the first job of each figure in a worker also pays
that model's import.  Ready-gated dispatch keeps interpreter start-up out
of job timeouts; that first-job import is inside them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from typing import Any, Callable, TextIO

from .supervisor import guard


def resolve_callable(spec: str) -> Callable[..., Any]:
    """Import ``"module:qualname"`` and return the named callable."""
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise ValueError(
            f"bad callable spec {spec!r}; expected 'module:qualname'"
        )
    target: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"{spec!r} resolved to non-callable {target!r}")
    return target


def _as_payload(raw: Any) -> Any:
    """Rebuild the engine payload tuple from its JSON (list) form.

    JSON has no tuples: the params element arrives as a list of
    ``[name, value]`` pairs.  Figure param coercion
    (:meth:`repro.figures.ParamSpec.coerce`) restores tuple-typed values,
    so pair order and container types round-trip losslessly.
    """
    if isinstance(raw, list):
        return tuple(
            tuple(tuple(pair) for pair in item)
            if isinstance(item, list)
            and all(isinstance(pair, list) for pair in item)
            else item
            for item in raw
        )
    return raw


def worker_main(
    stdin: TextIO | None = None, protocol_out: TextIO | None = None
) -> int:
    """Run the worker loop; returns the process exit code.

    ``stdin``/``protocol_out`` exist for in-process tests; the CLI passes
    nothing and the real descriptors are used, with fd 1 dup'd for the
    protocol before fd 1 and ``sys.stdout`` are redirected to stderr.
    """
    if stdin is None:
        stdin = sys.stdin
    owned = protocol_out is None
    if owned:
        # Claim the real stdout for the protocol, then point fd 1 itself at
        # stderr: prints, ``os.write(1, ...)``, C libraries and child
        # processes a figure starts all land there, never on the protocol.
        protocol_out = os.fdopen(os.dup(1), "w", buffering=1)
        os.dup2(2, 1)
        sys.stdout = sys.stderr
    try:
        return _serve(stdin, protocol_out)
    finally:
        if owned:
            protocol_out.close()


def _serve(stdin: TextIO, protocol_out: TextIO) -> int:
    """Answer protocol messages from ``stdin`` until shutdown or EOF."""

    def send(message: dict[str, Any]) -> None:
        protocol_out.write(json.dumps(message, separators=(",", ":")))
        protocol_out.write("\n")
        protocol_out.flush()

    compute: Callable[[Any], tuple[int, dict]] | None = None
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        message = json.loads(line)
        kind = message.get("type")
        if kind == "init":
            for entry in message.get("sys_path") or []:
                if entry not in sys.path:
                    sys.path.append(entry)
            for spec in message.get("preload") or []:
                resolve_callable(spec)()
            compute = resolve_callable(message["compute"])
            send({"type": "ready"})
        elif kind == "job":
            if compute is None:
                raise RuntimeError("protocol error: 'job' before 'init'")
            payload = _as_payload(message["payload"])
            index, result = guard(compute, payload)
            send({"type": "result", "index": index, "result": result})
        elif kind == "shutdown":
            break
        else:
            raise RuntimeError(f"protocol error: unknown message {kind!r}")
    return 0
