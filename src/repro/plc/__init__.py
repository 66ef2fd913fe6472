"""PLC and virtual-PLC models.

- :mod:`repro.plc.program` — function-block control programs;
- :mod:`repro.plc.platform` — hardware vs vPLC timing-noise models;
- :mod:`repro.plc.runtime` — the scan-cycle runtime over fieldbus devices;
- :mod:`repro.plc.redundancy` — hardware-pair and Kubernetes failover
  baselines used by the Section 4 comparisons.
"""

from .platform import (
    HARDWARE_PLC,
    PLATFORMS,
    PlatformModel,
    VPLC_PREEMPT_RT,
    VPLC_STOCK_KERNEL,
)
from .program import (
    Block,
    Ctu,
    FunctionBlockProgram,
    Lambda,
    Limit,
    Pid,
    Ton,
    passthrough_program,
)
from .redundancy import (
    FailoverRecord,
    HW_SWITCHOVER_MAX_NS,
    HW_SWITCHOVER_MIN_NS,
    K8S_SWITCHOVER_MAX_NS,
    K8S_SWITCHOVER_MIN_NS,
    KubernetesFailoverModel,
    RedundantPlcPair,
)
from .runtime import PlcRuntime, ScanStats

__all__ = [
    "Block",
    "Ctu",
    "FailoverRecord",
    "FunctionBlockProgram",
    "HARDWARE_PLC",
    "HW_SWITCHOVER_MAX_NS",
    "HW_SWITCHOVER_MIN_NS",
    "K8S_SWITCHOVER_MAX_NS",
    "K8S_SWITCHOVER_MIN_NS",
    "KubernetesFailoverModel",
    "Lambda",
    "Limit",
    "PLATFORMS",
    "Pid",
    "PlatformModel",
    "PlcRuntime",
    "RedundantPlcPair",
    "ScanStats",
    "Ton",
    "VPLC_PREEMPT_RT",
    "VPLC_STOCK_KERNEL",
    "passthrough_program",
]
