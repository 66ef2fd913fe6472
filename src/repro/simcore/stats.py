"""Execution statistics for the simulation kernel.

Every :class:`~repro.simcore.simulator.Simulator` owns a :class:`SimStats`
counter block (``sim.stats``) that the event loop updates as it runs.  The
:func:`collect` context manager aggregates the stats of *every* simulator
constructed inside its ``with`` block, which is how the experiment runner
(:mod:`repro.runner`) attributes event counts to a figure job without
threading a handle through every model layer::

    with collect() as stats:
        rows = fig5(seed=0)          # builds Simulators internally
    print(stats.events_executed)     # total across all of them

Collection is scoped by a simple module-level stack, so nested ``collect``
blocks each see the simulators created within them.

The event loop keeps a *local* executed counter and flushes it into
``sim.stats.events_executed`` when ``run`` returns (including on
exceptions), so there is **zero** per-event stats overhead while the loop
runs.  Consequence: ``events_executed`` read from *inside* a callback
lags by the events of the current ``run``; read it between runs (as
``collect`` does — it fills its block in when the ``with`` exits) for
exact totals.  ``events_scheduled`` is exact at every moment: it is the
simulator's sequence counter, and ``schedule`` takes each new event's
sequence number from it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulator import Simulator


@dataclass
class SimStats:
    """Counters maintained by the simulator's event loop.

    ``sim_time_ns`` is the furthest simulated instant reached; when stats
    blocks are merged it is the maximum, while every other field is summed.
    """

    simulators: int = 0
    events_scheduled: int = 0
    events_executed: int = 0
    processes_started: int = 0
    sim_time_ns: int = 0

    def merge(self, other: "SimStats") -> None:
        """Fold ``other`` into this block (sum counters, max sim time)."""
        self.simulators += other.simulators
        self.events_scheduled += other.events_scheduled
        self.events_executed += other.events_executed
        self.processes_started += other.processes_started
        self.sim_time_ns = max(self.sim_time_ns, other.sim_time_ns)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for JSON manifests."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Stack of open ``collect`` buckets; each bucket gathers the stats blocks
#: of the simulators constructed while it is on the stack.  A bucket holds
#: the blocks, never the simulators, so a simulator (its pending events
#: and, through them, its topology) is freed as soon as its model drops it.
_buckets: list[list[SimStats]] = []


def _register(sim: "Simulator") -> None:
    """Called by ``Simulator.__init__`` to join every open collection."""
    for bucket in _buckets:
        bucket.append(sim.stats)


@contextmanager
def collect() -> Iterator[SimStats]:
    """Aggregate stats from all simulators created inside the block.

    The yielded :class:`SimStats` is filled in when the block exits; reading
    it earlier shows zeros.
    """
    bucket: list[SimStats] = []
    _buckets.append(bucket)
    total = SimStats()
    try:
        yield total
    finally:
        _buckets.remove(bucket)
        for stats in bucket:
            total.merge(stats)
