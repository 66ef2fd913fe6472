"""eBPF/XDP program and execution-cost models.

- :mod:`repro.ebpf.isa` — cost-annotated operation kinds;
- :mod:`repro.ebpf.program` — programs, verifier checks, static cost
  bounds, and the six Figure 4 variants;
- :mod:`repro.ebpf.executor` — the execution context: per-op cost
  distributions under flow contention.
"""

from .executor import ExecutionEnvironment
from .isa import DEFAULT_COSTS, Instruction, OpCost, OpKind
from .program import (
    MAX_INSTRUCTIONS,
    StaticCostBound,
    VerifierError,
    XdpAction,
    XdpProgram,
    build_base,
    build_ts,
    build_ts_d_rb,
    build_ts_ow,
    build_ts_rb,
    build_ts_ts,
    paper_variants,
    verify,
)

__all__ = [
    "DEFAULT_COSTS",
    "ExecutionEnvironment",
    "Instruction",
    "MAX_INSTRUCTIONS",
    "OpCost",
    "OpKind",
    "StaticCostBound",
    "VerifierError",
    "XdpAction",
    "XdpProgram",
    "build_base",
    "build_ts",
    "build_ts_d_rb",
    "build_ts_ow",
    "build_ts_rb",
    "build_ts_ts",
    "paper_variants",
    "verify",
]
