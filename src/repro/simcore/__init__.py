"""Deterministic discrete-event simulation kernel.

Public API:

- :class:`Simulator` — event loop with integer-nanosecond time.
- :class:`Process` / :class:`Signal` — generator-coroutine processes.
- :class:`Event` — a scheduled callback, the entry on the simulator's
  one binary heap.
- :class:`RandomStreams` — named, independent random streams.
- :class:`Clock`, :class:`PtpSyncModel`, :func:`tap_clock` — clock models.
- :class:`SimStats` / :func:`collect_stats` — event-loop counters and a
  context manager aggregating them across simulators.
- :mod:`repro.simcore.units` — ``NS``/``US``/``MS``/``SEC`` constants.
"""

from .clock import Clock, PtpSyncModel, tap_clock
from .events import (
    Event,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
)
from .rng import RandomStreams
from .simulator import Process, Signal, SimulationError, Simulator
from .stats import SimStats, collect as collect_stats
from .units import HOUR, MINUTE, MS, NS, SEC, US

__all__ = [
    "Clock",
    "Event",
    "HOUR",
    "MINUTE",
    "MS",
    "NS",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "Process",
    "PtpSyncModel",
    "RandomStreams",
    "SEC",
    "Signal",
    "SimStats",
    "SimulationError",
    "Simulator",
    "US",
    "collect_stats",
    "tap_clock",
]
