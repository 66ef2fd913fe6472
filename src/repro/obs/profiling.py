"""Opt-in wall-time attribution for simulator event callbacks.

A :class:`Profiler` wraps every event callback the
:class:`~repro.simcore.simulator.Simulator` loop executes, accumulating
wall time per *callback name* — for bound methods that is
``ClassName.method`` (``Switch.receive``), for closures the enclosing
qualname (``Port.try_transmit.<locals>.<lambda>``) — which is exactly the
"which component burned the events" attribution a slow figure sweep needs.

Profiling is opt-in: a simulator only pays the wrapping cost after
``profiler.attach(sim)`` (or when constructed inside an
``obs.capture(profile=True)`` scope); otherwise the event loop checks a
single local and calls the callback directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


def callback_name(callback: Callable[..., Any]) -> str:
    """Attribution key for one event callback."""
    bound_to = getattr(callback, "__self__", None)
    if bound_to is not None:
        return f"{type(bound_to).__name__}.{callback.__name__}"
    return getattr(callback, "__qualname__", None) or repr(callback)


@dataclass(frozen=True)
class HotSpot:
    """Aggregated wall time of one callback name."""

    name: str
    calls: int
    total_ns: int
    max_ns: int

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "max_ns": self.max_ns,
            "mean_ns": round(self.mean_ns, 1),
        }


class Profiler:
    """Per-callback wall-time accumulator for simulator event loops."""

    def __init__(self) -> None:
        #: name -> [calls, total_ns, max_ns]
        self._slots: dict[str, list[int]] = {}

    def attach(self, sim) -> None:
        """Make ``sim``'s event loop route callbacks through this profiler."""
        sim._profiler = self

    def run_event(self, callback: Callable[..., Any], *args: Any) -> None:
        """Execute ``callback(*args)`` and charge its wall time to its name."""
        start = time.perf_counter_ns()
        try:
            callback(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            slot = self._slots.get(callback_name(callback))
            if slot is None:
                self._slots[callback_name(callback)] = [1, elapsed, elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed
                if elapsed > slot[2]:
                    slot[2] = elapsed

    @property
    def total_ns(self) -> int:
        """Wall time across every profiled callback."""
        return sum(slot[1] for slot in self._slots.values())

    def hotspots(self, top: int | None = None) -> list[HotSpot]:
        """Callback names ranked by total wall time, hottest first."""
        spots = sorted(
            (
                HotSpot(name=name, calls=slot[0], total_ns=slot[1], max_ns=slot[2])
                for name, slot in self._slots.items()
            ),
            key=lambda spot: spot.total_ns,
            reverse=True,
        )
        return spots[:top] if top is not None else spots

    def as_rows(self, top: int | None = None) -> list[dict[str, Any]]:
        """JSON-ready hot-spot rows (for run manifests)."""
        return [spot.as_dict() for spot in self.hotspots(top)]

    def to_table(self, top: int = 15) -> str:
        """Aligned text hot-spot table."""
        spots = self.hotspots(top)
        if not spots:
            return "(no profiled events)"
        total = self.total_ns or 1
        header = ["callback", "calls", "total ms", "mean us", "max us", "share"]
        rows = [
            [
                spot.name,
                str(spot.calls),
                f"{spot.total_ns / 1e6:.2f}",
                f"{spot.mean_ns / 1e3:.2f}",
                f"{spot.max_ns / 1e3:.2f}",
                f"{100 * spot.total_ns / total:.1f}%",
            ]
            for spot in spots
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows))
            for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-" * (sum(widths) + 2 * (len(widths) - 1)),
        ]
        lines += [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in rows
        ]
        return "\n".join(lines)


def hotspot_table(rows: list[dict[str, Any]], top: int = 15) -> str:
    """Render manifest-style hot-spot rows (see :meth:`Profiler.as_rows`)."""
    profiler = Profiler()
    for row in rows:
        profiler._slots[row["name"]] = [
            int(row["calls"]),
            int(row["total_ns"]),
            int(row["max_ns"]),
        ]
    return profiler.to_table(top)
