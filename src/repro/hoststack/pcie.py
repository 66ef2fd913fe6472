"""PCIe transaction latency model.

Section 2.1: "PCIe ... has a heavy latency toll for small packets — common
in industrial automation — contributing to more than 90% to the overall NIC
latency".  The model follows the structure measured by Neugebauer et al.
(SIGCOMM'18): a packet transfer decomposes into fixed per-transaction costs
(doorbell write, descriptor fetch, completion) plus a size-dependent DMA
component.  For a 64-byte industrial frame the fixed part dominates, which
is exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PcieModel:
    """Latency parameters of one PCIe link + NIC DMA engine.

    Defaults approximate a Gen3 x8 NIC: ~350 ns fixed RX cost, ~450 ns
    fixed TX cost (doorbell + descriptor round trip), 8 GB/s effective DMA
    bandwidth, and tens of nanoseconds of arbitration noise.
    """

    rx_fixed_ns: float = 350.0
    tx_fixed_ns: float = 450.0
    dma_bandwidth_gbps: float = 64.0  # 8 GB/s
    noise_std_ns: float = 30.0
    #: IOMMU/IOTLB miss probability and penalty (Section 2.1 cites IO memory
    #: management reducing NIC-to-CPU bandwidth and adding delays).
    iotlb_miss_probability: float = 0.002
    iotlb_miss_penalty_ns: float = 2_000.0

    def dma_ns(self, size_bytes: int) -> float:
        """Size-dependent DMA transfer time."""
        if size_bytes < 0:
            raise ValueError("size cannot be negative")
        return size_bytes * 8 / self.dma_bandwidth_gbps

    def fixed_fraction(self, size_bytes: int) -> float:
        """Share of total latency that is size-independent (the 90% claim)."""
        fixed = self.rx_fixed_ns + self.tx_fixed_ns
        total = fixed + 2 * self.dma_ns(size_bytes)
        return fixed / total
