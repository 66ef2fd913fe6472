"""Span tracing with Chrome trace-event export.

A :class:`Tracer` records *spans* (wall-clock intervals opened with the
``span()`` context manager), *instants* (point events), and raw *complete*
events, and serializes them in the Chrome trace-event format — the JSON
dialect Perfetto and ``chrome://tracing`` load directly.

Two time domains coexist:

- **wall clock** — ``span()`` / ``instant()`` stamp events with microseconds
  since the tracer's epoch, on the calling thread's track.  This is what
  profiles the reproduction stack itself (runner jobs, figure phases,
  ``Simulator.run``).
- **simulated time** — models emit windows that exist only inside the
  simulation (e.g. an InstaPLC crash-to-switchover window) with
  :meth:`Tracer.sim_span`, which maps simulated nanoseconds onto a dedicated
  track (``tid=SIM_TRACK``, 1 µs of track time per simulated µs).

Every event carries the trace-event schema's required fields: ``ph``,
``ts``, ``name``, ``pid``, ``tid`` (plus ``dur`` for complete events and
``s`` for instants), with user attributes under ``args``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

#: The ``tid`` of the synthetic track carrying simulated-time events.
SIM_TRACK = 1_000_000


class Span:
    """An open span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_start_us")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_us = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach additional attributes to the span."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        self._start_us = self._tracer._now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end_us = tracer._now_us()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        tracer.add_complete(
            self.name,
            ts_us=self._start_us,
            dur_us=end_us - self._start_us,
            **self.args,
        )


class Tracer:
    """Collects trace events and serializes them for Perfetto."""

    def __init__(self, process_name: str = "repro") -> None:
        self.process_name = process_name
        self.events: list[dict[str, Any]] = []
        self.pid = os.getpid()
        self._epoch_ns = time.perf_counter_ns()
        # Name the process track so Perfetto shows something readable.
        self.events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": self.pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": process_name},
            }
        )
        self.events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": self.pid,
                "tid": SIM_TRACK,
                "ts": 0,
                "args": {"name": "simulated-time"},
            }
        )

    # -- recording ----------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._epoch_ns) / 1_000

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a wall-clock span: ``with tracer.span("phase", k=v): ...``."""
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a point event at the current wall-clock instant."""
        self.events.append(
            {
                "ph": "i",
                "ts": round(self._now_us(), 3),
                "s": "t",
                "name": name,
                "pid": self.pid,
                "tid": threading.get_ident(),
                "args": attrs,
            }
        )

    def add_complete(
        self, name: str, ts_us: float, dur_us: float, **attrs: Any
    ) -> None:
        """Record a complete ("X") event with explicit timing."""
        self.events.append(
            {
                "ph": "X",
                "ts": round(ts_us, 3),
                "dur": round(max(dur_us, 0.0), 3),
                "name": name,
                "pid": self.pid,
                "tid": threading.get_ident(),
                "args": attrs,
            }
        )

    def sim_span(
        self, name: str, start_ns: int, end_ns: int, **attrs: Any
    ) -> None:
        """Record a simulated-time window on the dedicated sim track.

        Simulated nanoseconds map 1000:1 onto track microseconds, so a 1 ms
        simulated window renders as 1 ms in Perfetto.
        """
        self.events.append(
            {
                "ph": "X",
                "ts": start_ns / 1_000,
                "dur": max(end_ns - start_ns, 0) / 1_000,
                "name": name,
                "pid": self.pid,
                "tid": SIM_TRACK,
                "args": {"start_ns": start_ns, "end_ns": end_ns, **attrs},
            }
        )

    def __len__(self) -> int:
        return len(self.events)

    # -- export -------------------------------------------------------------

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object (``{"traceEvents": [...]}``)."""
        return {"traceEvents": self.events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> int:
        """Write Perfetto-loadable JSON; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)
        return len(self.events)


class _NullSpan:
    """Shared no-op span."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer handed out while tracing is disabled."""

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: Any) -> None:
        pass

    def add_complete(
        self, name: str, ts_us: float, dur_us: float, **attrs: Any
    ) -> None:
        pass

    def sim_span(
        self, name: str, start_ns: int, end_ns: int, **attrs: Any
    ) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
