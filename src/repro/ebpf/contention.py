"""Per-flow cache/state contention model.

Section 2.1: "multiple flows sharing host resources ... lead to increased
packet processing overhead".  Each additional active flow adds per-packet
cost (its descriptor/map state competes for L1/L2) and widens the variance
(hit-or-miss behaviour).  The growth saturates once the working set
exceeds cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheContentionModel:
    """Additive per-packet penalty as a function of active flow count."""

    per_flow_mean_ns: float = 14.0
    per_flow_std_ns: float = 9.0
    saturation_flows: int = 64

    def extra_mean_ns(self, active_flows: int) -> float:
        """Mean per-packet penalty at a given flow count."""
        effective = min(max(0, active_flows - 1), self.saturation_flows)
        return effective * self.per_flow_mean_ns

    def extra_std_ns(self, active_flows: int) -> float:
        """Added per-packet standard deviation at a given flow count."""
        effective = min(max(0, active_flows - 1), self.saturation_flows)
        return effective * self.per_flow_std_ns
