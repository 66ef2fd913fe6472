"""Stochastic fault injection driven by MTBF/MTTR profiles.

Bridges the analytic availability model (:mod:`core.availability_analysis`)
and the packet simulator: components fail and repair as exponential renewal
processes sampled from their :class:`ComponentClass`, and an observer
tracks each production cell's up/down intervals.  The integration tests
compare the *measured* availability against the analytic prediction — the
two must agree, which validates both sides.

Fault hooks are pluggable: a link fault downs a :class:`repro.net.Link`, a
controller fault crashes a :class:`repro.plc.PlcRuntime`, and arbitrary
callbacks cover everything else (e.g. a virtualization-stack incident that
crashes every vPLC on a host).

Two scheduling regimes coexist:

- **stochastic** — :meth:`FaultInjector.register` targets fail/repair as
  exponential renewal processes;
- **deterministic** — :meth:`FaultInjector.register_maintenance` windows
  open and close on a fixed period (planned maintenance, §2.2's scheduled
  downtime), which replays identically regardless of the seed.

With ``per_target_streams=True`` every target draws from its own named
:class:`~repro.simcore.rng.RandomStreams` stream, so adding, removing, or
reordering targets never perturbs the failure times of the others — the
property the :mod:`repro.chaos` campaign engine's bit-identical replay
contract rests on.

The injector emits ``chaos.fault.injected`` counters and
``chaos.cell.downtime_ns`` totals on the active
:class:`repro.obs.MetricsRegistry` (no-ops when observability is off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs import get_registry, get_tracer
from ..simcore import Simulator
from ..simcore.units import SEC
from .availability_analysis import ComponentClass


@dataclass
class FaultTarget:
    """One failing component: how to break it and how to repair it."""

    name: str
    component_class: ComponentClass
    fail: Callable[[], None]
    repair: Callable[[], None]
    #: cells affected while this component is down
    affected_cells: tuple[int, ...] = ()


@dataclass(frozen=True)
class MaintenanceWindow:
    """A deterministic, periodic downtime window for one target.

    Every ``period_ns`` the target goes down for ``duration_ns``, starting
    at ``first_start_ns``.  Unlike stochastic faults this schedule is
    seed-independent.
    """

    target: FaultTarget
    period_ns: int
    duration_ns: int
    first_start_ns: int = 0

    def __post_init__(self) -> None:
        if self.period_ns <= 0 or self.duration_ns <= 0:
            raise ValueError("maintenance period and duration must be positive")
        if self.duration_ns >= self.period_ns:
            raise ValueError("maintenance window must be shorter than its period")
        if self.first_start_ns < 0:
            raise ValueError("maintenance start cannot be negative")

    @property
    def downtime_fraction(self) -> float:
        """Long-run unavailability contributed by this window."""
        return self.duration_ns / self.period_ns


@dataclass
class CellDowntimeLog:
    """Up/down bookkeeping for one production cell."""

    cell: int
    down_since_ns: int | None = None
    #: number of components currently holding the cell down
    down_count: int = 0
    outages: list[tuple[int, int]] = field(default_factory=list)

    def mark_down(self, now_ns: int) -> None:
        if self.down_count == 0:
            self.down_since_ns = now_ns
        self.down_count += 1

    def mark_up(self, now_ns: int) -> tuple[int, int] | None:
        """Release one hold; returns the completed outage interval, if any."""
        self.down_count -= 1
        if self.down_count == 0 and self.down_since_ns is not None:
            outage = (self.down_since_ns, now_ns)
            self.outages.append(outage)
            self.down_since_ns = None
            return outage
        return None

    def downtime_ns(self, horizon_ns: int) -> int:
        total = sum(end - start for start, end in self.outages)
        if self.down_since_ns is not None:
            total += horizon_ns - self.down_since_ns
        return total

    def intervals(self, horizon_ns: int | None = None) -> list[tuple[int, int]]:
        """All outage intervals, with any open outage clipped to the horizon."""
        result = list(self.outages)
        if self.down_since_ns is not None and horizon_ns is not None:
            result.append((self.down_since_ns, horizon_ns))
        return result

    def availability(self, horizon_ns: int) -> float:
        if horizon_ns <= 0:
            raise ValueError("horizon must be positive")
        return 1.0 - self.downtime_ns(horizon_ns) / horizon_ns


class FaultInjector:
    """Schedules exponential failure/repair cycles for registered targets.

    Time acceleration: MTBFs are months — simulating them in nanosecond
    resolution is fine (integer time), but to collect statistics the
    ``time_compression`` factor shrinks both MTBF and MTTR, preserving
    their ratio (and therefore availability).

    ``per_target_streams=True`` replaces the shared ``"faults"`` stream with
    one named stream per target (``<stream_prefix>/<target name>``), making
    each target's failure schedule independent of every other target.
    """

    failures_injected = property(lambda self: self._m_injected.value)

    def __init__(
        self,
        sim: Simulator,
        cells: int,
        time_compression: float = 1.0,
        rng: np.random.Generator | None = None,
        per_target_streams: bool = False,
        stream_prefix: str = "faults",
    ) -> None:
        if cells < 1:
            raise ValueError("need at least one cell")
        if time_compression <= 0:
            raise ValueError("time compression must be positive")
        self.sim = sim
        self.time_compression = time_compression
        self.per_target_streams = per_target_streams
        self.stream_prefix = stream_prefix
        self.rng = rng if rng is not None else sim.streams.stream(stream_prefix)
        self.targets: list[FaultTarget] = []
        self.maintenance: list[MaintenanceWindow] = []
        self.logs = [CellDowntimeLog(cell=index) for index in range(cells)]
        self._running = False
        registry = get_registry()
        self._m_injected = registry.counter("chaos.fault.injected")
        self._m_downtime = [
            registry.counter("chaos.cell.downtime_ns", cell=index)
            for index in range(cells)
        ]

    # -- registration ----------------------------------------------------------

    def register(self, target: FaultTarget) -> None:
        """Add a component to the failure schedule."""
        for cell in target.affected_cells:
            if not 0 <= cell < len(self.logs):
                raise ValueError(f"unknown cell {cell}")
        self.targets.append(target)

    def register_link(
        self,
        link,
        component_class: ComponentClass,
        affected_cells: tuple[int, ...],
        name: str | None = None,
    ) -> None:
        """Convenience: a failing/repairing network link."""
        self.register(
            FaultTarget(
                name=name or repr(link),
                component_class=component_class,
                fail=link.set_down,
                repair=link.set_up,
                affected_cells=affected_cells,
            )
        )

    def register_maintenance(self, window: MaintenanceWindow) -> None:
        """Add a deterministic periodic maintenance window."""
        for cell in window.target.affected_cells:
            if not 0 <= cell < len(self.logs):
                raise ValueError(f"unknown cell {cell}")
        self.maintenance.append(window)

    # -- operation --------------------------------------------------------------

    def start(self) -> None:
        """Begin the failure processes (one per registered target/window)."""
        self._running = True
        for target in self.targets:
            self.sim.process(
                self._lifecycle(target), name=f"fault:{target.name}"
            )
        for window in self.maintenance:
            self.sim.process(
                self._maintenance_lifecycle(window),
                name=f"maintenance:{window.target.name}",
            )

    def stop(self) -> None:
        """Stop scheduling further failures (pending repairs complete)."""
        self._running = False

    def _rng_for(self, target: FaultTarget) -> np.random.Generator:
        if self.per_target_streams:
            return self.sim.streams.stream(
                f"{self.stream_prefix}/{target.name}"
            )
        return self.rng

    def _sample_ns(self, rng: np.random.Generator, mean_s: float) -> int:
        scaled = mean_s / self.time_compression
        return max(1, int(rng.exponential(scaled) * SEC))

    def _fail(self, target: FaultTarget) -> None:
        self._m_injected.inc()
        get_tracer().instant(
            "chaos.fault",
            target=target.name,
            cells=list(target.affected_cells),
            sim_time_ns=self.sim.now,
        )
        target.fail()
        for cell in target.affected_cells:
            self.logs[cell].mark_down(self.sim.now)

    def _repair(self, target: FaultTarget) -> None:
        target.repair()
        for cell in target.affected_cells:
            outage = self.logs[cell].mark_up(self.sim.now)
            if outage is not None:
                self._m_downtime[cell].inc(outage[1] - outage[0])

    def _lifecycle(self, target: FaultTarget):
        rng = self._rng_for(target)
        while self._running:
            yield self._sample_ns(rng, target.component_class.mtbf_s)
            if not self._running:
                return
            self._fail(target)
            yield self._sample_ns(rng, target.component_class.mttr_s)
            self._repair(target)

    def _maintenance_lifecycle(self, window: MaintenanceWindow):
        period = max(1, int(window.period_ns / self.time_compression))
        duration = max(1, int(window.duration_ns / self.time_compression))
        start = int(window.first_start_ns / self.time_compression)
        if start:
            yield start
        while self._running:
            self._fail(window.target)
            yield duration
            self._repair(window.target)
            yield max(1, period - duration)

    # -- reporting ------------------------------------------------------------------

    def measured_availability(self, horizon_ns: int) -> dict[int, float]:
        """Per-cell availability over the observation horizon."""
        return {
            log.cell: log.availability(horizon_ns) for log in self.logs
        }

    def mean_availability(self, horizon_ns: int) -> float:
        """Average availability across cells."""
        values = list(self.measured_availability(horizon_ns).values())
        return float(np.mean(values))

    def outage_intervals(
        self, horizon_ns: int | None = None
    ) -> dict[int, list[tuple[int, int]]]:
        """Per-cell outage intervals (open outages clipped to the horizon).

        This is the campaign replay identity: two runs of the same
        ``(seed, scenario)`` must produce byte-identical interval lists.
        """
        return {
            log.cell: log.intervals(horizon_ns) for log in self.logs
        }

    def simultaneous_outage_events(self) -> int:
        """Count of cell-outage intervals (one per affected cell)."""
        return sum(len(log.outages) for log in self.logs)
