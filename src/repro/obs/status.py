"""Sweep status: one fold over the sweep's lifecycle events.

A sweep reports its lifecycle once, as the event stream of
:mod:`repro.obs.sweeptrace` (``sweep.events.jsonl``).  Status is not a
second record of the same facts but a left fold over those events:
:class:`StatusFold` applies one event at a time and
:meth:`StatusFold.snapshot` reads off::

    {
      "state": "running",          // "running" | "done" | "degraded"
      "total": 20,                 // jobs in the sweep
      "done": 12,                  // completed (any status)
      "ok": 9,                     // computed and ok
      "cached": 2,
      "failed": 1,                 // failed/timeout after their last attempt
      "retries": 3,                // retries scheduled so far
      "workers": 2,                // parallelism of the backend that ran
      "backend": "local-pool",     // null until pending jobs are dispatched
      "current": ["fig5 seed=3"],  // cells in flight, labelled by job_label
      "elapsed_s": 81.4,           // sweep start to the last event
      "eta_s": 42.0,               // null before a computed job finishes
      "updated_at": 1754476800.0,  // unix time of the last event
      "last_error": "fig6 seed=1: ValueError: ..."   // or null
    }

Three consumers read this one fold: the engine's recorder keeps it up to
date in memory (the CLI progress line and :attr:`SweepResult.status
<repro.runner.SweepResult.status>` read it), and ``repro obs tail``
re-folds the events file of a running or finished sweep.  The fold reads
no clock and touches no file, so replaying the same events gives the
same status.
"""

from __future__ import annotations

from typing import Any, Iterable

STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_DEGRADED = "degraded"


class StatusFold:
    """Sweep status accumulated one lifecycle event at a time."""

    def __init__(self) -> None:
        self.started = False
        self.total = 0
        self.done = 0
        self.ok = 0
        self.cached = 0
        self.failed = 0
        self.retries = 0
        self.workers = 1
        self.backend: str | None = None
        self.last_error: str | None = None
        self.state = STATE_RUNNING
        self._t0 = 0.0
        self._last_ts = 0.0
        self._elapsed: float | None = None
        self._labels: dict[int, str] = {}
        self._current: dict[int, str] = {}
        self._compute_s = 0.0
        self._computed = 0

    def apply(self, event: dict[str, Any]) -> None:
        """Fold one event (a ``sweep.events.jsonl`` line, parsed)."""
        kind = event.get("ev")
        ts = event.get("ts", self._last_ts)
        if kind == "sweep_start":
            self.started = True
            self.total = event.get("total", 0)
            self._t0 = ts
        elif kind == "dispatch":
            self.backend = event.get("backend")
            self.workers = max(event.get("workers", 1), 1)
        elif kind == "submitted":
            self._labels[event["job"]] = event.get("label") or str(
                event.get("figure", "?")
            )
        elif kind == "cache_hit":
            self.done += 1
            self.cached += 1
        elif kind == "attempt_start":
            job = event["job"]
            self._current[job] = self._labels.get(job, f"job {job}")
        elif kind == "retry_scheduled":
            self.retries += 1
        elif kind == "attempt_end":
            job = event["job"]
            self._current.pop(job, None)
            if event.get("final"):
                self.done += 1
                outcome = event.get("outcome")
                if outcome == "ok":
                    self.ok += 1
                    self._compute_s += event.get("wall_s", 0.0)
                    self._computed += 1
                else:
                    self.failed += 1
                    label = self._labels.get(job, f"job {job}")
                    self.last_error = (
                        f"{label}: {event.get('error') or outcome}"
                    )
        elif kind == "sweep_end":
            self.state = STATE_DEGRADED if self.failed else STATE_DONE
            self._current.clear()
            self._elapsed = event.get("wall_s")
        self._last_ts = max(self._last_ts, ts)

    def eta_s(self) -> float | None:
        """Remaining jobs times the mean computed-job time, per worker;
        ``None`` before the first computed job and once nothing remains."""
        remaining = max(self.total - self.done, 0)
        if not self._computed or not remaining:
            return None
        return remaining * (self._compute_s / self._computed) / self.workers

    def snapshot(self) -> dict[str, Any]:
        eta = self.eta_s()
        elapsed = self._elapsed
        if elapsed is None:
            elapsed = max(self._last_ts - self._t0, 0.0)
        return {
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "ok": self.ok,
            "cached": self.cached,
            "failed": self.failed,
            "retries": self.retries,
            "workers": self.workers,
            "backend": self.backend,
            "current": [self._current[k] for k in sorted(self._current)],
            "elapsed_s": round(elapsed, 3),
            "eta_s": round(eta, 3) if eta is not None else None,
            "updated_at": self._last_ts,
            "last_error": self.last_error,
        }


def fold_status(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The status snapshot of an event stream (see :class:`StatusFold`).

    Raises :class:`ValueError` when the stream has no ``sweep_start``:
    the file is not a sweep trace, or its first line is not written yet.
    """
    fold = StatusFold()
    for event in events:
        fold.apply(event)
    if not fold.started:
        raise ValueError(
            "not a sweep trace: no sweep_start event (is the sweep still "
            "starting, or is this some other file?)"
        )
    return fold.snapshot()


def _format_eta(eta: float | None) -> str:
    if eta is None:
        return ""
    if eta >= 90:
        return f" eta ~{eta / 60:.0f}m"
    return f" eta ~{eta:.0f}s"


def format_status(status: dict[str, Any]) -> str:
    """One-line human rendering, shared by progress lines and ``tail``."""
    parts = [
        f"[{status.get('done', 0)}/{status.get('total', 0)}]",
        f"ok={status.get('ok', 0)}",
        f"cached={status.get('cached', 0)}",
        f"failed={status.get('failed', 0)}",
    ]
    if status.get("retries"):
        parts.append(f"retries={status['retries']}")
    line = " ".join(parts)
    state = status.get("state", STATE_RUNNING)
    if state == STATE_RUNNING:
        current = status.get("current") or []
        if current:
            shown = ", ".join(current[:2])
            if len(current) > 2:
                shown += f", +{len(current) - 2} more"
            line += f" | running: {shown}"
        line += _format_eta(status.get("eta_s"))
    else:
        line += f" | {state} in {status.get('elapsed_s', 0):.1f}s"
    return line
