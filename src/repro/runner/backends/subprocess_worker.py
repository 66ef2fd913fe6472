"""Parent side of the ``subprocess`` backend: ``repro worker`` children.

``SubprocessWorkerBackend`` drives a small fleet of ``python -m repro
worker`` child processes over the line-oriented JSON protocol defined in
:mod:`repro.runner.worker`: nothing on the wire is a pickle or a file
descriptor, and workers share results through the content-addressed
row/cache store rather than the protocol.

Compared with the local pool, guilt attribution is *simpler* here: each
child runs exactly one job at a time on its own pipe, so a child dying
mid-job convicts that job directly — no quarantine protocol needed, and
innocent bystanders on other children are never disturbed.  Timeouts are
likewise surgical: only the offending child is killed.

Retry bookkeeping (backoff schedule, ``chaos.runner.retries`` counter,
``on_event`` lifecycle events) is shared with every other backend through
:func:`~repro.runner.backends.base.charge_failure`.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..supervisor import (
    STATUS_FAILED,
    STATUS_TIMEOUT,
    RetryPolicy,
    Task,
)
from .base import charge_failure

#: A child that dies (or violates the protocol) before completing a
#: single job counts as a strike; this many consecutive strikes aborts
#: the sweep (children are clearly unable to start — bad preload, broken
#: interpreter, corrupt worker binary) instead of respawning forever.
_MAX_SPAWN_STRIKES = 5

#: Hard cap on one protocol line from a child.  A healthy ``repro
#: worker`` result is a few KB (rows travel through the content store,
#: not the pipe); a child streaming an unbounded newline-free blob is a
#: protocol violation, and reading it forever would wedge the parent.
_MAX_LINE_BYTES = 64 * 1024 * 1024


def compute_spec(compute: Callable[..., Any]) -> str:
    """The ``module:qualname`` wire form of ``compute``.

    The callable must be importable by name in a fresh process — locals
    and lambdas cannot cross the protocol (by design: no pickles).
    """
    qualname = getattr(compute, "__qualname__", "")
    module = getattr(compute, "__module__", "")
    if not module or not qualname or "<locals>" in qualname:
        raise ValueError(
            f"compute callable {compute!r} is not importable by name; the "
            f"subprocess backend needs a module-level function"
        )
    return f"{module}:{qualname}"


@dataclass
class _Child:
    """One worker child plus its reader thread."""

    id: int
    proc: subprocess.Popen
    reader: threading.Thread = field(repr=False, default=None)  # type: ignore[assignment]
    #: Jobs this child has completed (strike accounting).
    completed: int = 0


class SubprocessWorkerBackend:
    """Execute tasks on ``repro worker`` subprocess children (see module
    docstring).

    ``preload`` entries (``"module:callable"``) are sent to every child
    and invoked before its first job — the hook for registering figure
    specs that exist only at runtime in the parent (fresh processes do
    not inherit them the way forked pool workers do).
    """

    name = "subprocess"

    def __init__(
        self,
        workers: int | None = None,
        *,
        preload: Sequence[str] = (),
        python: str | None = None,
    ) -> None:
        self.workers = max(workers or 2, 1)
        self.preload = list(preload)
        self.python = python or sys.executable

    def _spawn(self, child_id: int, init: dict[str, Any]) -> _Child:
        env = dict(os.environ)
        # `-m repro` must import in the child even when the parent was
        # launched with a cwd-relative PYTHONPATH.
        package_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        proc = subprocess.Popen(
            [self.python, "-m", "repro", "worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        assert proc.stdin is not None
        proc.stdin.write(json.dumps(init, separators=(",", ":")) + "\n")
        proc.stdin.flush()
        return _Child(id=child_id, proc=proc)

    def run(
        self,
        tasks: Sequence[Task],
        compute: Callable[[Any], tuple[int, dict]],
        policy: RetryPolicy,
        finish: Callable[[int, dict], None],
        on_event: Callable[..., None] | None = None,
    ) -> None:
        init = {
            "type": "init",
            "sys_path": [p for p in sys.path if p],
            "preload": self.preload,
            "compute": compute_spec(compute),
        }
        pending: list[Task] = list(tasks)
        sleeping: list[tuple[float, int, Task]] = []  # (due, tiebreak, task)
        tick = itertools.count()
        ids = itertools.count()
        children: dict[int, _Child] = {}
        idle: list[int] = []
        busy: dict[int, Task] = {}
        #: Children we killed on purpose; their EOF must not convict.
        discarded: set[int] = set()
        messages: "queue.Queue[tuple[int, dict | None]]" = queue.Queue()
        strikes = 0

        def emit(kind: str, **info: Any) -> None:
            if on_event is not None:
                on_event(kind, None, info)

        def watch(child: _Child) -> None:
            def violation(why: str) -> None:
                messages.put(
                    (child.id, {"type": "__protocol_error__", "why": why})
                )

            def pump() -> None:
                # A child's output is untrusted input: malformed JSON, a
                # truncated write from a dying process, or an unbounded
                # newline-free blob must convict *this* child, not crash
                # the reader thread (which would silently wedge its slot).
                try:
                    assert child.proc.stdout is not None
                    cap = _MAX_LINE_BYTES
                    while True:
                        line = child.proc.stdout.readline(cap + 1)
                        if not line:
                            break  # EOF: the sentinel below reports it
                        if not line.endswith("\n"):
                            if len(line) > cap:
                                violation(
                                    f"protocol line exceeds "
                                    f"{cap} bytes"
                                )
                            else:
                                violation(
                                    "partial protocol line (child died "
                                    "mid-write)"
                                )
                            break
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            message = json.loads(line)
                        except ValueError:
                            violation(
                                f"malformed JSON on protocol stream: "
                                f"{line[:120]!r}"
                            )
                            break
                        if not isinstance(message, dict):
                            violation(
                                f"non-object protocol message: "
                                f"{line[:120]!r}"
                            )
                            break
                        messages.put((child.id, message))
                finally:
                    messages.put((child.id, None))

            child.reader = threading.Thread(target=pump, daemon=True)
            child.reader.start()

        def reap(child_id: int) -> None:
            child = children.pop(child_id, None)
            if child is None:
                return
            discarded.add(child_id)
            if child_id in idle:
                idle.remove(child_id)
            proc = child.proc
            try:
                if proc.stdin is not None:
                    proc.stdin.close()
            except OSError:
                pass
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=5.0)

        def reschedule(task: Task, delay_s: float) -> None:
            heapq.heappush(
                sleeping, (time.monotonic() + delay_s, next(tick), task)
            )

        def fail(task: Task, result: dict, status: str) -> None:
            result.setdefault(
                "wall_time_s", time.monotonic() - task.started_at
            )
            charge_failure(
                task, result, status, policy, finish, on_event, reschedule
            )

        def dispatch(child_id: int, task: Task) -> bool:
            """Send ``task`` to a child; False if its pipe turned out dead."""
            task.attempts += 1
            task.started_at = time.monotonic()
            if on_event is not None:
                on_event("start", task, {"worker": child_id})
            child = children[child_id]
            try:
                assert child.proc.stdin is not None
                child.proc.stdin.write(
                    json.dumps(
                        {"type": "job", "payload": task.payload},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                child.proc.stdin.flush()
            except (OSError, ValueError):
                # The child died while idle — not this task's doing.
                # Uncharge it, discard the corpse, and let the loop
                # respawn; the EOF message is already in flight.
                if on_event is not None:
                    on_event(
                        "attempt_end", task, {"outcome": "preempted"}
                    )
                task.attempts -= 1
                pending.insert(0, task)
                emit("worker_dead", worker=child_id, reason="dead pipe")
                reap(child_id)
                return False
            busy[child_id] = task
            return True

        try:
            while pending or sleeping or busy:
                now = time.monotonic()
                while sleeping and sleeping[0][0] <= now:
                    pending.append(heapq.heappop(sleeping)[2])

                # Keep min(workers, runnable) children alive.  A child is
                # not dispatchable until its "ready" arrives: interpreter
                # start-up and preload imports must never count against a
                # job's timeout budget.
                want = min(self.workers, len(pending) + len(busy))
                while len(children) < want:
                    child = self._spawn(next(ids), init)
                    children[child.id] = child
                    emit("worker_spawn", worker=child.id, pid=child.proc.pid)
                    watch(child)

                while pending and idle:
                    dispatch(idle.pop(0), pending.pop(0))

                if not busy and not children:
                    if pending:
                        continue  # a pipe died mid-dispatch; respawn
                    # Everything is in backoff: sleep until the first is
                    # due.
                    time.sleep(max(sleeping[0][0] - time.monotonic(), 0.0))
                    continue

                wait_s: float | None = None
                if policy.timeout_s is not None and busy:
                    deadlines = [
                        t.started_at + policy.timeout_s - now
                        for t in busy.values()
                    ]
                    wait_s = max(min(deadlines), 0.01)
                if sleeping:
                    until_due = max(sleeping[0][0] - now, 0.01)
                    wait_s = (
                        until_due if wait_s is None else min(wait_s, until_due)
                    )
                try:
                    child_id, message = messages.get(timeout=wait_s)
                except queue.Empty:
                    child_id, message = -1, {}

                def convict(child_id: int, why: str) -> None:
                    """A child broke the protocol: fail its job (if any),
                    count a strike against never-productive children, and
                    discard the child — siblings are never disturbed."""
                    nonlocal strikes
                    task = busy.pop(child_id, None)
                    if task is not None:
                        fail(
                            task,
                            {"error": f"worker protocol violation: {why}"},
                            STATUS_FAILED,
                        )
                    child = children.get(child_id)
                    if child is None or child.completed == 0:
                        strikes += 1
                        if strikes >= _MAX_SPAWN_STRIKES:
                            raise RuntimeError(
                                "subprocess workers keep dying or breaking "
                                "protocol before completing a job; check "
                                "stderr for import/preload errors"
                            )
                    emit("worker_dead", worker=child_id, reason=why)
                    reap(child_id)

                if child_id >= 0 and child_id not in discarded:
                    kind = None if message is None else message.get("type")
                    if message is None:
                        # EOF: the child process died.
                        task = busy.pop(child_id, None)
                        if task is not None:
                            # One job per child: died-while-busy convicts
                            # the job directly, no quarantine needed.
                            fail(
                                task,
                                {"error": "worker process died before "
                                          "returning a result (killed, "
                                          "crashed, or exited)"},
                                STATUS_FAILED,
                            )
                        child = children.get(child_id)
                        if child is None or child.completed == 0:
                            strikes += 1
                            if strikes >= _MAX_SPAWN_STRIKES:
                                raise RuntimeError(
                                    "subprocess workers keep dying before "
                                    "completing a job; check stderr for "
                                    "import/preload errors"
                                )
                        emit(
                            "worker_dead", worker=child_id,
                            reason="process exit",
                        )
                        reap(child_id)
                    elif kind == "__protocol_error__":
                        convict(child_id, message.get("why", "unreadable"))
                    elif kind == "result":
                        task = busy.pop(child_id, None)
                        result = message.get("result")
                        if task is None or not isinstance(result, dict):
                            if task is not None:
                                busy[child_id] = task  # convict() refails
                            convict(
                                child_id,
                                "result for idle child"
                                if task is None
                                else "non-object result payload",
                            )
                        else:
                            child = children[child_id]
                            child.completed += 1
                            strikes = 0
                            idle.append(child_id)
                            if "error" in result:
                                fail(task, result, STATUS_FAILED)
                            else:
                                result["attempts"] = task.attempts
                                finish(task.index, result)
                    elif kind == "ready":
                        emit("worker_ready", worker=child_id)
                        if child_id in children and child_id not in idle:
                            idle.append(child_id)
                    else:
                        # Unknown message types are protocol violations
                        # too: a parent silently ignoring them would mask
                        # a version-skewed or corrupted worker forever.
                        convict(
                            child_id, f"unknown message type {kind!r}"
                        )

                if policy.timeout_s is not None:
                    now = time.monotonic()
                    for child_id in [
                        cid for cid, t in busy.items()
                        if now - t.started_at >= policy.timeout_s
                    ]:
                        # Surgical, unlike the pool: only the offender's
                        # child is killed; siblings keep running.
                        task = busy.pop(child_id)
                        emit(
                            "worker_dead", worker=child_id,
                            reason="timeout kill",
                        )
                        reap(child_id)
                        fail(
                            task,
                            {"error": f"job exceeded timeout of "
                                      f"{policy.timeout_s:g}s"},
                            STATUS_TIMEOUT,
                        )
        finally:
            for child_id, child in list(children.items()):
                try:
                    if child.proc.stdin is not None:
                        child.proc.stdin.write('{"type":"shutdown"}\n')
                        child.proc.stdin.flush()
                except (OSError, ValueError):
                    pass
                reap(child_id)
