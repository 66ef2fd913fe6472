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
from ..obs import get_registry
from ..simcore import Simulator
from .kernel import KernelNoiseModel, PREEMPT_RT_ISOLATED
from .pcie import PcieModel


@dataclass(frozen=True)
class DriverModel:
    """Fixed driver-path costs around the XDP hook (busy-polling NAPI)."""

    rx_fixed_ns: float = 4_300.0
    tx_fixed_ns: float = 3_400.0
    noise_std_ns: float = 180.0


@dataclass
class XdpHostModel:
    """End-to-end host residence-time sampler for one reflected frame.

    A frame draws, in order: PCIe rx noise and IOTLB check; one normal for
    the rx driver pass, one per XDP op (a spiky op adds a spike check and
    maybe a spike) and one for cache contention when there is any; normals
    for the tx driver pass and PCIe tx noise; the tx IOTLB check; kernel
    noise and, if the kernel preempts at all, a preemption check and maybe
    a window.  That order is part of the golden contract.  The draw plan
    groups each run of consecutive normals into one ``standard_normal(n)``
    call, which consumes the bit stream exactly as ``n`` scalar draws do.
    """

    program: XdpProgram
    rng: np.random.Generator
    pcie: PcieModel = field(default_factory=PcieModel)
    driver: DriverModel = field(default_factory=DriverModel)
    kernel: KernelNoiseModel = PREEMPT_RT_ISOLATED
    active_flows: int = 1

    def __post_init__(self) -> None:
        self.environment = ExecutionEnvironment(active_flows=self.active_flows)
        self._build_plan()

    def set_active_flows(self, count: int) -> None:
        """Update the concurrent-flow count (affects contention)."""
        self.active_flows = count
        self.environment.active_flows = count
        self._build_plan()

    def _build_plan(self) -> None:
        # The op distributions, the exec histogram of this flow count, and
        # the runs of normals a frame draws: each run is (count, spike_p),
        # its normals then, if spike_p > 0, the spike check of the op the
        # run ends with.
        environment = self.environment
        self._ops = environment.op_costs(self.program)
        flows = environment.active_flows
        self._m_exec_ns = get_registry().histogram("ebpf.exec_ns", flows=flows)
        cache = environment.cache_model
        mean, std = cache.extra_mean_ns(flows), cache.extra_std_ns(flows)
        self._cache = None if mean == 0.0 and std == 0.0 else (mean, std)
        runs = []
        count = 1  # the rx driver pass
        for _, _, spike_p, _, _ in self._ops:
            count += 1
            if spike_p > 0:
                runs.append((count, spike_p))
                count = 0
        # cache contention, the tx driver pass and the PCIe tx noise
        runs.append((count + (self._cache is not None) + 2, 0.0))
        self._runs = runs

    def residence_ns(self, frame_bytes: int) -> float:
        """Sample wire-in to wire-out residence time for one frame."""
        rng = self.rng
        normals = rng.standard_normal
        random = rng.random
        pcie, driver, kernel = self.pcie, self.driver, self.kernel
        z_pcie_rx = normals()
        rx_miss = random() < pcie.iotlb_miss_probability
        z: list[float] = []
        spikes: list[float | None] = []
        for count, spike_p in self._runs:
            z += normals(count).tolist()
            if spike_p > 0:
                spikes.append(random() if random() < spike_p else None)
        tx_miss = random() < pcie.iotlb_miss_probability
        z_kernel = normals()
        preempt_p = kernel.preemption_probability
        u_preempt = random() if preempt_p > 0 and random() < preempt_p else None

        # numpy draws normal(m, s) as m + s*z and uniform(a, b) as
        # a + (b - a)*u; for zero-mean noise m + s*z differs from s*z only
        # in the sign of a zero, which abs() drops.  Each component keeps
        # its own partial sum, added in path order.
        dma = pcie.dma_ns(frame_bytes)
        pcie_rx = pcie.rx_fixed_ns + dma
        pcie_rx += abs(pcie.noise_std_ns * z_pcie_rx)
        if rx_miss:
            pcie_rx += pcie.iotlb_miss_penalty_ns
        driver_rx = driver.rx_fixed_ns + abs(driver.noise_std_ns * z[0])
        exec_ns = 0.0
        index = 1
        spike_draws = iter(spikes)
        for mean, std, spike_p, spike_lo, spike_hi in self._ops:
            value = mean + std * z[index]
            index += 1
            if value < 0.0:
                value = 0.0
            if spike_p > 0:
                u = next(spike_draws)
                if u is not None:
                    value += spike_lo + (spike_hi - spike_lo) * u
            exec_ns += value
        if self._cache is not None:
            mean, std = self._cache
            exec_ns += max(0.0, mean + std * z[index])
        self._m_exec_ns.observe(exec_ns)
        driver_tx = driver.tx_fixed_ns + abs(driver.noise_std_ns * z[-2])
        pcie_tx = pcie.tx_fixed_ns + dma
        pcie_tx += abs(pcie.noise_std_ns * z[-1])
        if tx_miss:
            pcie_tx += pcie.iotlb_miss_penalty_ns
        noise = abs(kernel.base_std_ns * z_kernel)
        if u_preempt is not None:
            low = kernel.preemption_min_ns
            noise += low + (kernel.preemption_max_ns - low) * u_preempt
        return pcie_rx + driver_rx + exec_ns + driver_tx + pcie_tx + noise


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
        #: Frames that arrived while the core was still busy.
        self.queued_frames = 0

    def receive(self, packet: Packet, in_port: Port) -> None:
        now = self.sim.now
        start = max(now, self._core_free_at)
        if start > now:
            self.queued_frames += 1
        residence = round(self.model.residence_ns(packet.frame_bytes))
        self._core_free_at = start + residence
        done_in = self._core_free_at - now
        self.sim.schedule(self._reflect, (packet, in_port), after=done_in)

    def _reflect(self, arrival: tuple[Packet, Port]) -> None:
        packet, in_port = arrival
        reflected = packet.copy_for_replication()
        reflected.src, reflected.dst = packet.dst, packet.src
        self.reflected += 1
        in_port.send(reflected)
