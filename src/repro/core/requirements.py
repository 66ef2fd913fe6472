"""Section 2's quantitative requirements as first-class objects.

Every number below is stated in the paper (with its upstream sources:
3GPP TR 22.804, 5G-ACIA, PROFINET specs):

- §2.1 timing: machine tools at 500 µs cycles; high-speed motion control at
  250 µs latency and < 1 µs jitter; process automation at 10-100 ms.
- §2.2 availability: >= 99.9999 % (six nines), i.e. < 31.5 s downtime/year;
  data centers aim for minutes per month.
- §2.3 traffic mix: time-critical cyclic traffic from < 2 ms cycles with
  20-50 B payloads up to 1-10 ms cycles with 40-250 B payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.availability import downtime_per_year_s, nines_to_availability
from ..simcore.units import MS, US


@dataclass(frozen=True)
class TimingRequirement:
    """A timing class: cycle time, end-to-end latency, and jitter bounds."""

    name: str
    cycle_ns: int
    max_latency_ns: int
    max_jitter_ns: int

    def __post_init__(self) -> None:
        if min(self.cycle_ns, self.max_latency_ns, self.max_jitter_ns) <= 0:
            raise ValueError("timing bounds must be positive")

    def admits_jitter_ns(self, worst_case_jitter_ns: float) -> bool:
        """True when a worst-case absolute jitter fits the bound."""
        return worst_case_jitter_ns <= self.max_jitter_ns

    def admits_latency_ns(self, worst_case_latency_ns: float) -> bool:
        """True when a worst-case latency fits the bound."""
        return worst_case_latency_ns <= self.max_latency_ns


#: Machine tools: "cycle times as low as 500 µs".
MACHINE_TOOLS = TimingRequirement(
    name="machine-tools",
    cycle_ns=500 * US,
    max_latency_ns=500 * US,
    max_jitter_ns=10 * US,
)

#: High-speed motion control (battery manufacturing): "latencies as low as
#: 250 µs and jitter less than 1 µs".
MOTION_CONTROL = TimingRequirement(
    name="motion-control",
    cycle_ns=250 * US,
    max_latency_ns=250 * US,
    max_jitter_ns=1 * US,
)

#: Process automation: "cycle times typically ranging from 10 ms to 100 ms".
PROCESS_AUTOMATION = TimingRequirement(
    name="process-automation",
    cycle_ns=10 * MS,
    max_latency_ns=100 * MS,
    max_jitter_ns=1 * MS,
)

TIMING_CLASSES = (MACHINE_TOOLS, MOTION_CONTROL, PROCESS_AUTOMATION)


@dataclass(frozen=True)
class AvailabilityRequirement:
    """An availability class expressed in nines."""

    name: str
    nines: float

    @property
    def availability(self) -> float:
        """Required availability fraction."""
        return nines_to_availability(self.nines)

    @property
    def downtime_budget_s_per_year(self) -> float:
        """Allowed downtime per year in seconds."""
        return downtime_per_year_s(self.availability)

    def admits(self, observed_availability: float) -> bool:
        """True when an observed availability meets the class."""
        return observed_availability >= self.availability


#: "at least 99.9999" — under 31.5 s downtime per year.
INDUSTRIAL_SIX_NINES = AvailabilityRequirement(name="industrial", nines=6.0)

#: Data centers: "monthly downtime of a few minutes" — about three nines.
DATACENTER_TYPICAL = AvailabilityRequirement(name="datacenter", nines=3.0)


@dataclass(frozen=True)
class TrafficClassRequirement:
    """One §2.3 cyclic traffic class."""

    name: str
    min_cycle_ns: int
    max_cycle_ns: int
    min_payload_bytes: int
    max_payload_bytes: int

    def admits(self, cycle_ns: int, payload_bytes: int) -> bool:
        """True when a flow's parameters fall inside the class."""
        return (
            self.min_cycle_ns <= cycle_ns <= self.max_cycle_ns
            and self.min_payload_bytes <= payload_bytes <= self.max_payload_bytes
        )


#: "very short cycle times (< 2 ms) with small payloads (20-50 bytes)".
ISOCHRONOUS_CLASS = TrafficClassRequirement(
    name="isochronous",
    min_cycle_ns=1,
    max_cycle_ns=2 * MS,
    min_payload_bytes=20,
    max_payload_bytes=50,
)

#: "slightly longer cycles (1-10 ms) and larger payloads (40 to 250 bytes)".
CYCLIC_RT_CLASS = TrafficClassRequirement(
    name="cyclic-rt",
    min_cycle_ns=1 * MS,
    max_cycle_ns=10 * MS,
    min_payload_bytes=40,
    max_payload_bytes=250,
)

TRAFFIC_CLASSES = (ISOCHRONOUS_CLASS, CYCLIC_RT_CLASS)
