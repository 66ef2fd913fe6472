"""The execution context of an XDP hook.

The same program costs different amounts on different packets: cache state,
concurrent flows, and ring-buffer contention all move the number.  An
:class:`ExecutionEnvironment` captures that context and turns a program's
cost table into the per-op distributions it runs with.  The per-packet
draws are made by :meth:`repro.hoststack.XdpHostModel.residence_ns`, which
samples the whole host path of a reflected frame at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contention import CacheContentionModel
from .program import XdpProgram


@dataclass
class ExecutionEnvironment:
    """Execution context for one XDP hook (one NIC queue, one core)."""

    active_flows: int = 1
    cache_model: CacheContentionModel = CacheContentionModel()
    #: extra multiplicative widening of *contended* op variance per flow
    contention_slope: float = 0.05

    def contention_scale(self) -> float:
        """Variance multiplier applied to memory-touching operations."""
        extra = max(0, self.active_flows - 1)
        return 1.0 + self.contention_slope * min(extra, 64)

    def op_costs(
        self, program: XdpProgram
    ) -> list[tuple[float, float, float, float, float]]:
        """``(mean, std, spike_p, spike_lo, spike_hi)`` per instruction.

        A contended op's standard deviation is multiplied by
        :meth:`contention_scale` and its mean by ``1 + (scale - 1) / 4``.
        """
        scale = self.contention_scale()
        costs = []
        for instruction in program.instructions:
            cost = instruction.cost(program.cost_table)
            std = cost.std_ns * (scale if cost.contended else 1.0)
            mean = cost.mean_ns * (
                1.0 + (scale - 1.0) * 0.25 if cost.contended else 1.0
            )
            costs.append(
                (mean, std, cost.spike_probability, cost.spike_min_ns, cost.spike_max_ns)
            )
        return costs
