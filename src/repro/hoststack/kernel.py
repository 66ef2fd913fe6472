"""Kernel-induced latency noise.

Even in XDP native mode — where a reflected packet never becomes an skb —
the executing CPU is subject to kernel noise: timer ticks, RCU callbacks,
IPIs, cache pollution from other cores.  PREEMPT_RT shortens but does not
eliminate these windows ("cannot be considered hard real-time", Section
2.1); a stock kernel adds much longer, rarer stalls.

:class:`KernelNoiseModel` parameterizes a per-packet additive latency, a
mixture of a small always-present Gaussian and rare preemption windows;
:meth:`repro.hoststack.XdpHostModel.residence_ns` draws it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcore.units import US


@dataclass(frozen=True)
class KernelNoiseModel:
    """Additive per-packet kernel noise."""

    name: str
    base_std_ns: float
    preemption_probability: float
    preemption_min_ns: float
    preemption_max_ns: float


#: PREEMPT_RT host dedicated to packet processing (isolated core, no RT
#: throttling): tight base noise, rare short preemptions.
PREEMPT_RT_ISOLATED = KernelNoiseModel(
    name="preempt-rt-isolated",
    base_std_ns=60.0,
    preemption_probability=5e-5,
    preemption_min_ns=2.0 * US,
    preemption_max_ns=20.0 * US,
)

#: PREEMPT_RT without core isolation: housekeeping shares the core.
PREEMPT_RT_SHARED = KernelNoiseModel(
    name="preempt-rt-shared",
    base_std_ns=150.0,
    preemption_probability=5e-4,
    preemption_min_ns=5.0 * US,
    preemption_max_ns=50.0 * US,
)

#: Stock (non-RT) kernel: long tail from non-preemptible sections.
STOCK_KERNEL = KernelNoiseModel(
    name="stock-kernel",
    base_std_ns=400.0,
    preemption_probability=2e-3,
    preemption_min_ns=20.0 * US,
    preemption_max_ns=500.0 * US,
)


# Re-exported here because callers think of cache contention as a host
# property; it lives in repro.ebpf.contention to avoid an import cycle.
from ..ebpf.contention import CacheContentionModel

__all__ = [
    "CacheContentionModel",
    "KernelNoiseModel",
    "PREEMPT_RT_ISOLATED",
    "PREEMPT_RT_SHARED",
    "STOCK_KERNEL",
]
