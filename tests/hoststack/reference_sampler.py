"""The residence oracle: the XDP host path drawn one scalar call at a time.

:class:`ReferenceXdpHostModel` composes a reflected frame's host residence
the obvious way — one ``rng.normal``/``rng.random``/``rng.uniform`` call
per draw, each component summed on its own, the six partial sums added in
path order — from the same parameter dataclasses as
:class:`repro.hoststack.XdpHostModel`.  The model batches its normal draws;
a test builds both on equal generators and compares the samples bit for
bit and the generator states after.

The component functions are the per-component samplers on their own, so
distribution tests can check one component's parameters without the rest
of the path.
"""

from __future__ import annotations

import numpy as np

from repro.ebpf import ExecutionEnvironment, OpCost, XdpProgram
from repro.hoststack import (
    CacheContentionModel,
    DriverModel,
    KernelNoiseModel,
    PREEMPT_RT_ISOLATED,
    PcieModel,
)


def pcie_ns(
    pcie: PcieModel, fixed_ns: float, size_bytes: int, rng: np.random.Generator
) -> float:
    """One PCIe transfer: fixed cost, DMA, arbitration noise, IOTLB miss."""
    value = fixed_ns + pcie.dma_ns(size_bytes)
    value += abs(rng.normal(0.0, pcie.noise_std_ns))
    if rng.random() < pcie.iotlb_miss_probability:
        value += pcie.iotlb_miss_penalty_ns
    return value


def driver_ns(
    driver: DriverModel, fixed_ns: float, rng: np.random.Generator
) -> float:
    """One driver pass (rx or tx) around the XDP hook."""
    return fixed_ns + abs(rng.normal(0.0, driver.noise_std_ns))


def op_ns(
    cost: OpCost, rng: np.random.Generator, contention_scale: float = 1.0
) -> float:
    """One operation of an XDP program under a contention scale."""
    std = cost.std_ns * (contention_scale if cost.contended else 1.0)
    mean = cost.mean_ns * (
        1.0 + (contention_scale - 1.0) * 0.25 if cost.contended else 1.0
    )
    value = max(0.0, rng.normal(mean, std))
    if cost.spike_probability > 0 and rng.random() < cost.spike_probability:
        value += rng.uniform(cost.spike_min_ns, cost.spike_max_ns)
    return value


def cache_ns(
    model: CacheContentionModel, active_flows: int, rng: np.random.Generator
) -> float:
    """The per-packet cache contention penalty (>= 0)."""
    mean = model.extra_mean_ns(active_flows)
    std = model.extra_std_ns(active_flows)
    if mean == 0.0 and std == 0.0:
        return 0.0
    return max(0.0, rng.normal(mean, std))


def execute_ns(
    program: XdpProgram,
    environment: ExecutionEnvironment,
    rng: np.random.Generator,
) -> float:
    """One program invocation: every op, then cache contention."""
    scale = environment.contention_scale()
    total = 0.0
    for instruction in program.instructions:
        total += op_ns(instruction.cost(program.cost_table), rng, scale)
    total += cache_ns(environment.cache_model, environment.active_flows, rng)
    return total


def kernel_ns(kernel: KernelNoiseModel, rng: np.random.Generator) -> float:
    """Per-packet kernel noise (>= 0): base Gaussian plus rare preemption."""
    value = abs(rng.normal(0.0, kernel.base_std_ns))
    if kernel.preemption_probability > 0 and rng.random() < kernel.preemption_probability:
        value += rng.uniform(kernel.preemption_min_ns, kernel.preemption_max_ns)
    return value


class ReferenceXdpHostModel:
    """Scalar-draw twin of :class:`repro.hoststack.XdpHostModel` with the
    default PCIe and driver parameters."""

    def __init__(
        self,
        program: XdpProgram,
        rng: np.random.Generator,
        kernel: KernelNoiseModel = PREEMPT_RT_ISOLATED,
        active_flows: int = 1,
    ) -> None:
        self.program = program
        self.rng = rng
        self.pcie = PcieModel()
        self.driver = DriverModel()
        self.kernel = kernel
        self.environment = ExecutionEnvironment(active_flows=active_flows)

    def residence_ns(self, frame_bytes: int) -> float:
        rng = self.rng
        total = pcie_ns(self.pcie, self.pcie.rx_fixed_ns, frame_bytes, rng)
        total += driver_ns(self.driver, self.driver.rx_fixed_ns, rng)
        total += execute_ns(self.program, self.environment, rng)
        total += driver_ns(self.driver, self.driver.tx_fixed_ns, rng)
        total += pcie_ns(self.pcie, self.pcie.tx_fixed_ns, frame_bytes, rng)
        total += kernel_ns(self.kernel, rng)
        return total
