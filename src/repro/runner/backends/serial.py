"""In-process sequential backend: deterministic, pool-free, debuggable.

``SerialBackend`` executes every task in the supervising process, one at
a time, in submission order — no fork, no pickling, no scheduler
nondeterminism.  It is what ``--jobs 1`` sweeps and the test suite run
on, and the reference implementation the backend-conformance suite
measures the others against.

Timeouts are enforced *post hoc*: a frame cannot kill itself, so a task
that exceeds ``RetryPolicy.timeout_s`` runs to completion, has its
result discarded, and is recorded (and retried/charged) exactly as a
pool timeout would be — same ``"timeout"`` status, same backoff, same
lifecycle events.  Preemptive enforcement needs process isolation; pick
``local-pool`` or ``subprocess`` for hung-job protection.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from ..supervisor import (
    STATUS_FAILED,
    STATUS_TIMEOUT,
    RetryPolicy,
    Task,
    guard,
)
from .base import charge_failure


class SerialBackend:
    """Sequential in-process execution (see module docstring)."""

    name = "serial"
    workers = 1

    def run(
        self,
        tasks: Sequence[Task],
        compute: Callable[[Any], tuple[int, dict]],
        policy: RetryPolicy,
        finish: Callable[[int, dict], None],
        on_event: Callable[..., None] | None = None,
    ) -> None:
        for task in tasks:
            self._run_one(task, compute, policy, finish, on_event)

    def _run_one(
        self,
        task: Task,
        compute: Callable[[Any], tuple[int, dict]],
        policy: RetryPolicy,
        finish: Callable[[int, dict], None],
        on_event: Callable[..., None] | None,
    ) -> None:
        while True:
            task.attempts += 1
            if on_event is not None:
                on_event("start", task)
            started = time.monotonic()
            index, result = guard(compute, task.payload)
            elapsed = time.monotonic() - started
            timed_out = (
                policy.timeout_s is not None and elapsed >= policy.timeout_s
            )
            if "error" not in result and not timed_out:
                result["attempts"] = task.attempts
                finish(index, result)
                return
            if timed_out:
                # The attempt's output (success or error) is discarded:
                # past the deadline it would have been killed on a
                # process-isolating backend, and conformance demands the
                # same observable record here.
                result = {
                    "error": (
                        f"job exceeded timeout of {policy.timeout_s:g}s "
                        f"(completed in {elapsed:.2f}s; the serial backend "
                        f"cannot preempt)"
                    ),
                    "wall_time_s": elapsed,
                }
                status = STATUS_TIMEOUT
            else:
                status = STATUS_FAILED
            retry = {"requeued": False}

            def reschedule(task: Task, delay_s: float) -> None:
                retry["requeued"] = True
                time.sleep(delay_s)

            charge_failure(
                task, result, status, policy, finish, on_event, reschedule
            )
            if not retry["requeued"]:
                return
