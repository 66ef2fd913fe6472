"""Flow taxonomy and traffic generators.

Section 2.3 classifies data-center flows as mice (< 10 KB), medium
(~0.5 MB), and elephants (> 1 GB), then identifies the new vPLC flow type:
*cyclic, small-packet, strictly deterministic, never-ending*.  This module
encodes that taxonomy and provides host-attachable generators for each kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable

import numpy as np

from ..simcore import Process, Simulator
from .host import Host
from .packet import TrafficClass

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

#: Flow-size thresholds from the paper's cited taxonomy.
MICE_MAX_BYTES = 10 * KB
MEDIUM_MAX_BYTES = 100 * MB
ELEPHANT_MIN_BYTES = 1 * GB


class FlowKind(Enum):
    """Flow categories, including the paper's new cyclic microflow."""

    MICE = auto()
    MEDIUM = auto()
    ELEPHANT = auto()
    CYCLIC_MICROFLOW = auto()


@dataclass(frozen=True)
class FlowSpec:
    """Static description of one flow.

    ``total_bytes`` is ``None`` for never-ending flows; ``period_ns`` is
    ``None`` for non-cyclic flows.
    """

    flow_id: str
    src: str
    dst: str
    total_bytes: int | None = None
    period_ns: int | None = None
    payload_bytes: int = MICE_MAX_BYTES
    traffic_class: TrafficClass = TrafficClass.BEST_EFFORT
    jitter_budget_ns: int | None = None

    @property
    def kind(self) -> FlowKind:
        """Classify per Section 2.3."""
        if self.total_bytes is None and self.period_ns is not None:
            return FlowKind.CYCLIC_MICROFLOW
        if self.total_bytes is None:
            return FlowKind.ELEPHANT  # unbounded stream without a cycle
        if self.total_bytes <= MICE_MAX_BYTES:
            return FlowKind.MICE
        if self.total_bytes >= ELEPHANT_MIN_BYTES:
            return FlowKind.ELEPHANT
        return FlowKind.MEDIUM

    @property
    def is_never_ending(self) -> bool:
        """True for the paper's new flow type (and unbounded streams)."""
        return self.total_bytes is None


def classify_flow(spec: FlowSpec) -> FlowKind:
    """Module-level alias for :attr:`FlowSpec.kind`."""
    return spec.kind


@dataclass
class FlowStats:
    """Counters a generator maintains while running."""

    packets_sent: int = 0
    bytes_sent: int = 0
    send_times_ns: list[int] = field(default_factory=list)


class CyclicSender:
    """Sends one small frame every cycle, forever — a vPLC-style microflow.

    ``release_jitter_fn`` models sender-side scheduling noise (e.g. a vPLC
    on a non-real-time kernel) as extra nanoseconds added per activation.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        release_jitter_fn: Callable[[], int] | None = None,
        start_ns: int = 0,
    ) -> None:
        if spec.period_ns is None or spec.period_ns <= 0:
            raise ValueError("cyclic flows need a positive period")
        self.sim = sim
        self.host = host
        self.spec = spec
        self.stats = FlowStats()
        self._release_jitter_fn = release_jitter_fn
        self._start_ns = start_ns
        self._process: Process | None = None
        self.running = False

    def start(self) -> None:
        """Begin emitting cyclic frames."""
        if self.running:
            return
        self.running = True
        self._process = self.sim.process(
            self._run(), name=f"cyclic:{self.spec.flow_id}"
        )

    def stop(self) -> None:
        """Silently stop — models a crashed/failed sender."""
        self.running = False
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _run(self):
        if self._start_ns:
            yield self._start_ns
        period = self.spec.period_ns
        next_release = self.sim.now
        while True:
            jitter = self._release_jitter_fn() if self._release_jitter_fn else 0
            if jitter > 0:
                yield jitter
            self._emit()
            next_release += period
            delay = next_release - self.sim.now
            yield max(0, delay)

    def _emit(self) -> None:
        self.stats.packets_sent += 1
        self.stats.bytes_sent += self.spec.payload_bytes
        self.stats.send_times_ns.append(self.sim.now)
        self.host.send(
            dst=self.spec.dst,
            payload_bytes=self.spec.payload_bytes,
            traffic_class=self.spec.traffic_class,
            flow_id=self.spec.flow_id,
            sequence=self.stats.packets_sent,
        )


class PoissonSender:
    """Open-loop Poisson packet arrivals — generic IT background traffic."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        spec: FlowSpec,
        rate_pps: float,
        rng: np.random.Generator,
        start_ns: int = 0,
    ) -> None:
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.host = host
        self.spec = spec
        self.rate_pps = rate_pps
        self.rng = rng
        self.stats = FlowStats()
        self._start_ns = start_ns
        self.running = False
        self._process: Process | None = None

    def start(self) -> None:
        """Begin emitting."""
        self.running = True
        self._process = self.sim.process(
            self._run(), name=f"poisson:{self.spec.flow_id}"
        )

    def stop(self) -> None:
        """Stop emitting."""
        self.running = False
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _run(self):
        if self._start_ns:
            yield self._start_ns
        mean_gap_ns = 1e9 / self.rate_pps
        while True:
            gap = max(1, int(self.rng.exponential(mean_gap_ns)))
            yield gap
            self.stats.packets_sent += 1
            self.stats.bytes_sent += self.spec.payload_bytes
            self.stats.send_times_ns.append(self.sim.now)
            self.host.send(
                dst=self.spec.dst,
                payload_bytes=self.spec.payload_bytes,
                traffic_class=self.spec.traffic_class,
                flow_id=self.spec.flow_id,
                sequence=self.stats.packets_sent,
            )
