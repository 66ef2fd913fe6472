"""The executor-backend contract and the ``--backend`` spec grammar.

An :class:`ExecutorBackend` is the thing :func:`repro.runner.run_jobs`
hands its pending tasks to.  The engine owns everything backend-agnostic
— grid expansion, cache lookups, manifest records, checkpointing, the
lifecycle event stream — and the backend owns exactly one job: *execute
these tasks under this retry policy and call ``finish`` exactly once per
task*.

The contract every backend must honor — enforced by
``tests/runner/test_backend_conformance.py``:

- ``finish(index, result)`` is called exactly once per task, from the
  supervising process.  ``result`` is the worker's success dict, or a
  failure dict with ``status`` (``"failed"``/``"timeout"``), ``error``,
  optionally ``traceback``, and ``attempts``.
- a raising figure becomes a ``failed`` result, never an exception out
  of :meth:`ExecutorBackend.run`;
- a failed attempt with retry budget left is retried after the
  deterministic :meth:`RetryPolicy.backoff_s` delay, counted on the
  ``chaos.runner.retries`` obs counter, with ``on_event("retry", task)``
  fired — and the retry reruns the *identical* payload;
- ``on_event("start", task)`` fires before every execution attempt;
- innocent bystanders of a sibling's crash or timeout are rerun without
  being charged an attempt.

Backend specs (CLI ``--backend``) are ``name[:workers]``::

    serial            # in-process, deterministic, no pool
    local-pool        # supervised ProcessPoolExecutor
    local-pool:8      # ... with an explicit worker count
    subprocess:2      # 2 'repro worker' children over stdio

With no spec (or ``auto``) the engine chooses: ``serial`` when the sweep
has one worker or one uncached job and no timeout, ``local-pool``
otherwise.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ... import obs
from ..supervisor import (
    RETRIES_COUNTER,
    RetryPolicy,
    Task,
)

#: Spec name resolved by the engine's legacy heuristic (inline for tiny
#: sweeps without timeouts, the local pool otherwise).
BACKEND_AUTO = "auto"


@runtime_checkable
class ExecutorBackend(Protocol):
    """What the engine requires of an executor backend."""

    #: Short name recorded on every job's manifest record.
    name: str

    #: Parallelism the backend offers (the manifest's ``workers``, the
    #: sweep trace's ``dispatch`` event and the status ETA divisor).
    workers: int

    def run(
        self,
        tasks: Sequence[Task],
        compute: Callable[[Any], tuple[int, dict]],
        policy: RetryPolicy,
        finish: Callable[[int, dict], None],
        on_event: Callable[..., None] | None = None,
    ) -> None:
        """Execute ``tasks``, calling ``finish`` exactly once per task.

        ``on_event(kind, task, info=None)`` is the engine's lifecycle
        channel.  Kinds every backend emits: ``"start"`` (before each
        attempt), ``"retry"`` (``info={"delay_s": ...}``) and
        ``"attempt_end"`` (``info={"outcome", "wall_s", "error"}``) —
        both via :func:`charge_failure` — plus ``"attempt_end"`` with
        ``outcome="preempted"`` for uncharged bystander reruns.  The
        subprocess backend additionally emits worker-lifecycle events
        (``"worker_spawn"``/``"worker_ready"``/``"worker_dead"``) with
        ``task=None``.
        """
        ...


def charge_failure(
    task: Task,
    result: dict,
    status: str,
    policy: RetryPolicy,
    finish: Callable[..., None],
    on_event: Callable[..., None] | None,
    reschedule: Callable[[Task, float], None],
    *,
    release: Callable[[Task], None] | None = None,
) -> None:
    """Shared retry bookkeeping: reschedule with backoff, or finalize.

    Exactly the discipline :mod:`repro.runner.supervisor` established —
    increment the retry counter, fire ``on_event("retry")``, and hand the
    backend a backend-specific ``reschedule(task, delay_s)`` — extracted
    so Serial/Subprocess backends cannot drift from the local pool.

    Every charged attempt closes with ``on_event("attempt_end", task,
    {...})`` carrying the outcome, so the sweep trace sees failed and
    timed-out attempts exactly like successful ones; ``final`` marks the
    attempt after which no retry follows.  ``release`` is a backend hook
    invoked just before a task is finalized (the local pool lifts its
    quarantine there).
    """
    retry = task.attempts <= policy.retries
    if on_event is not None:
        on_event(
            "attempt_end",
            task,
            {
                "outcome": status,
                "wall_s": result.get("wall_time_s"),
                "error": result.get("error"),
                "final": not retry,
            },
        )
    if retry:
        obs.get_registry().counter(
            RETRIES_COUNTER, figure=task.figure
        ).inc()
        delay_s = policy.backoff_s(task.key, task.attempts)
        if on_event is not None:
            on_event("retry", task, {"delay_s": delay_s})
        reschedule(task, delay_s)
        return
    if release is not None:
        release(task)
    result["status"] = status
    result["attempts"] = task.attempts
    finish(task.index, result)


def parse_backend_spec(spec: str) -> tuple[str, int | None]:
    """Split ``"name[:workers]"`` into its parts, validating the shape."""
    text = (spec or "").strip()
    name, _, workers_text = text.partition(":")
    name = name.strip().lower()
    if not name:
        raise ValueError(
            f"empty backend spec {spec!r}; expected NAME[:WORKERS], e.g. "
            f"'serial', 'local-pool', 'subprocess:2'"
        )
    if not workers_text:
        return name, None
    try:
        workers = int(workers_text)
    except ValueError:
        raise ValueError(
            f"bad worker count {workers_text!r} in backend spec {spec!r}; "
            f"expected NAME[:WORKERS], e.g. 'subprocess:2'"
        ) from None
    if workers < 1:
        raise ValueError(
            f"backend spec {spec!r} needs at least 1 worker"
        )
    return name, workers


def resolve_backend(
    spec: "str | ExecutorBackend | None",
    *,
    workers: int | None = None,
) -> "ExecutorBackend | None":
    """Turn a ``--backend`` spec into a backend.

    ``spec`` may already be an :class:`ExecutorBackend` instance (passed
    through unchanged), a spec string, or ``None``/``"auto"`` — in which
    case ``None`` is returned so the engine applies its auto heuristic.
    ``workers`` is the engine's ``--jobs`` value; an explicit ``:N`` in
    the spec wins.
    """
    if spec is None:
        return None
    if not isinstance(spec, str):
        return spec
    name, spec_workers = parse_backend_spec(spec)
    count = spec_workers or workers
    if name == BACKEND_AUTO:
        return None
    if name == "serial":
        from .serial import SerialBackend

        return SerialBackend()
    if name == "local-pool":
        from .local_pool import LocalPoolBackend

        return LocalPoolBackend(workers=count)
    if name == "subprocess":
        from .subprocess_worker import SubprocessWorkerBackend

        return SubprocessWorkerBackend(workers=count or 2)
    raise ValueError(
        f"unknown backend {name!r}; available: serial, local-pool[:N], "
        f"subprocess[:N] (or 'auto')"
    )
