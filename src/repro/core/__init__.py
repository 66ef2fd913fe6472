"""The paper's framing as an API.

- :mod:`repro.core.requirements` — Section 2 timing / availability /
  traffic-class requirements with the paper's numbers;
- :mod:`repro.core.compliance` — a cyclic arrival series checked against
  a timing class (jitter, watchdog, consecutive events); each bound is
  judged by the requirement objects themselves (``admits_latency_ns``,
  ``admits_jitter_ns``, ``admits``);
- :mod:`repro.core.convergence` — the converged IT/OT factory facade.
"""

from .availability_analysis import (
    ComponentClass,
    DependencyChain,
    PlantArchitecture,
    classic_ot_plant,
    compare_architectures,
    consolidated_vplc_plant,
    redundant_vplc_plant,
)
from .faults import (
    CellDowntimeLog,
    FaultInjector,
    FaultTarget,
    MaintenanceWindow,
)
from .compliance import ComplianceResult, check_timing
from .convergence import Cell, ConvergedFactory, FactoryConfig
from .requirements import (
    AvailabilityRequirement,
    CYCLIC_RT_CLASS,
    DATACENTER_TYPICAL,
    INDUSTRIAL_SIX_NINES,
    ISOCHRONOUS_CLASS,
    MACHINE_TOOLS,
    MOTION_CONTROL,
    PROCESS_AUTOMATION,
    TIMING_CLASSES,
    TRAFFIC_CLASSES,
    TimingRequirement,
    TrafficClassRequirement,
)

__all__ = [
    "AvailabilityRequirement",
    "CYCLIC_RT_CLASS",
    "Cell",
    "ComplianceResult",
    "CellDowntimeLog",
    "ComponentClass",
    "FaultInjector",
    "FaultTarget",
    "DependencyChain",
    "PlantArchitecture",
    "classic_ot_plant",
    "compare_architectures",
    "consolidated_vplc_plant",
    "redundant_vplc_plant",
    "ConvergedFactory",
    "DATACENTER_TYPICAL",
    "FactoryConfig",
    "INDUSTRIAL_SIX_NINES",
    "ISOCHRONOUS_CLASS",
    "MaintenanceWindow",
    "MACHINE_TOOLS",
    "MOTION_CONTROL",
    "PROCESS_AUTOMATION",
    "TIMING_CLASSES",
    "TRAFFIC_CLASSES",
    "TimingRequirement",
    "TrafficClassRequirement",
    "check_timing",
]
