"""The host-side packet path for XDP reflection.

Composes the stages a reflected frame traverses inside the end host:

``PHY/MAC -> PCIe DMA (rx) -> driver poll -> XDP program -> driver tx ->
PCIe DMA (tx) -> PHY/MAC``

plus kernel noise on the executing core.  The path is single-core: frames
are processed one at a time, so overlapping arrivals queue — with many
concurrent TSN flows this queueing, together with cache contention, is what
drives the jitter growth on the right side of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ebpf.executor import ExecutionEnvironment
from ..ebpf.program import XdpProgram
from ..net.device import Device
from ..net.link import Port
from ..net.packet import Packet
from ..simcore import Simulator
from .kernel import KernelNoiseModel, PREEMPT_RT_ISOLATED
from .pcie import PcieModel


@dataclass(frozen=True)
class DriverModel:
    """Fixed driver-path costs around the XDP hook (busy-polling NAPI)."""

    rx_fixed_ns: float = 4_300.0
    tx_fixed_ns: float = 3_400.0
    noise_std_ns: float = 180.0

    def rx_ns(self, rng: np.random.Generator) -> float:
        """Sample the receive-side driver cost."""
        return self.rx_fixed_ns + abs(rng.normal(0.0, self.noise_std_ns))

    def tx_ns(self, rng: np.random.Generator) -> float:
        """Sample the transmit-side driver cost."""
        return self.tx_fixed_ns + abs(rng.normal(0.0, self.noise_std_ns))


@dataclass
class XdpHostModel:
    """End-to-end host residence-time sampler for one reflected frame."""

    program: XdpProgram
    rng: np.random.Generator
    pcie: PcieModel = field(default_factory=PcieModel)
    driver: DriverModel = field(default_factory=DriverModel)
    kernel: KernelNoiseModel = PREEMPT_RT_ISOLATED
    active_flows: int = 1

    def __post_init__(self) -> None:
        self.environment = ExecutionEnvironment(
            rng=self.rng, active_flows=self.active_flows
        )

    def set_active_flows(self, count: int) -> None:
        """Update the concurrent-flow count (affects contention)."""
        self.active_flows = count
        self.environment.active_flows = count

    def residence_ns(self, frame_bytes: int) -> float:
        """Sample wire-in to wire-out residence time for one frame."""
        total = self.pcie.rx_latency_ns(frame_bytes, self.rng)
        total += self.driver.rx_ns(self.rng)
        total += self.environment.execute_ns(self.program)
        total += self.driver.tx_ns(self.rng)
        total += self.pcie.tx_latency_ns(frame_bytes, self.rng)
        total += self.kernel.sample_ns(self.rng)
        return total


class XdpReflectorHost(Device):
    """A host whose NIC runs an XDP program in native mode and reflects.

    Single processing core: overlapping arrivals serialize.  Every frame is
    sent back out the ingress port with src/dst swapped, like the paper's
    reflection point.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        model: XdpHostModel,
    ) -> None:
        super().__init__(sim, name)
        self.model = model
        self._core_free_at = 0
        self.reflected = 0
        self.queueing_delays_ns: list[int] = []

    def receive(self, packet: Packet, in_port: Port) -> None:
        now = self.sim.now
        start = max(now, self._core_free_at)
        self.queueing_delays_ns.append(start - now)
        residence = round(self.model.residence_ns(packet.frame_bytes))
        self._core_free_at = start + residence
        done_in = self._core_free_at - now
        self.sim.schedule(lambda: self._reflect(packet, in_port), after=done_in)

    def _reflect(self, packet: Packet, in_port: Port) -> None:
        reflected = packet.copy_for_replication()
        reflected.src, reflected.dst = packet.dst, packet.src
        self.reflected += 1
        in_port.send(reflected)
