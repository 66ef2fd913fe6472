"""Time-Sensitive Networking primitives.

- :mod:`repro.tsn.gcl` — 802.1Qbv gate control lists;
- :mod:`repro.tsn.shaper` — the time-aware shaper with guard bands;
- :mod:`repro.tsn.scheduler` — no-wait schedule synthesis for cyclic flows.
"""

from .annealing import AnnealingSynthesizer
from .calculus import (
    ArrivalCurve,
    ServiceCurve,
    backlog_bound_bits,
    delay_bound_s,
    path_delay_bound_s,
    strict_priority_residual,
    switch_service_curve,
)
from .preemption import (
    FRAGMENT_OVERHEAD_BYTES,
    MIN_FRAGMENT_BYTES,
    PreemptionConfig,
    enable_preemption,
)
from .gcl import (
    ALL_PCPS,
    GateControlEntry,
    GateControlList,
    always_open,
    protected_window_gcl,
)
from .scheduler import (
    HopWindow,
    InfeasibleScheduleError,
    ScheduleSynthesizer,
    ScheduledFlow,
    TsnSchedule,
)
from .shaper import TimeAwareShaper

__all__ = [
    "ALL_PCPS",
    "AnnealingSynthesizer",
    "ArrivalCurve",
    "ServiceCurve",
    "backlog_bound_bits",
    "delay_bound_s",
    "path_delay_bound_s",
    "strict_priority_residual",
    "switch_service_curve",
    "FRAGMENT_OVERHEAD_BYTES",
    "GateControlEntry",
    "GateControlList",
    "MIN_FRAGMENT_BYTES",
    "PreemptionConfig",
    "enable_preemption",
    "HopWindow",
    "InfeasibleScheduleError",
    "ScheduleSynthesizer",
    "ScheduledFlow",
    "TimeAwareShaper",
    "TsnSchedule",
    "always_open",
    "protected_window_gcl",
]
