"""A cost-annotated instruction/helper model for eBPF programs.

We do not interpret eBPF bytecode; we model the *latency* of the operations
an XDP program performs, because that is what Traffic Reflection measures.
Every operation kind carries a cost distribution (mean, standard deviation,
and optional rare-spike component).  The numbers are calibrated so the six
Figure 4 program variants reproduce the paper's CDF ordering and the
ring-buffer / no-ring-buffer split; see EXPERIMENTS.md for the calibration
rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class OpKind(Enum):
    """Operation kinds an XDP program is composed of."""

    ALU = auto()              # register arithmetic / mov / shifts
    BRANCH = auto()           # conditional jump
    PKT_READ = auto()         # load from packet data (after bounds check)
    PKT_WRITE = auto()        # store into packet data
    MAP_LOOKUP = auto()       # bpf_map_lookup_elem (hash/array)
    MAP_UPDATE = auto()       # bpf_map_update_elem
    HELPER_KTIME = auto()     # bpf_ktime_get_ns
    HELPER_RINGBUF = auto()   # bpf_ringbuf_output (reserve+memcpy+commit)
    RETURN = auto()           # XDP action return


@dataclass(frozen=True)
class OpCost:
    """Latency distribution of one operation kind."""

    mean_ns: float
    std_ns: float
    spike_probability: float = 0.0
    spike_min_ns: float = 0.0
    spike_max_ns: float = 0.0
    #: Whether this op touches memory shared across flows (subject to cache
    #: contention scaling).
    contended: bool = False


#: Default cost table.  Calibrated for the Figure 4 reproduction:
#: plain instructions are sub-nanosecond-to-nanosecond; helper calls carry
#: call overhead; ``bpf_ringbuf_output`` is dominated by the reserve/commit
#: protocol and consumer wake-up, making it the expensive outlier the
#: paper's "Ring Buffer" cluster shows.
DEFAULT_COSTS: dict[OpKind, OpCost] = {
    OpKind.ALU: OpCost(mean_ns=1.2, std_ns=0.3),
    OpKind.BRANCH: OpCost(mean_ns=1.8, std_ns=0.6),
    OpKind.PKT_READ: OpCost(mean_ns=28.0, std_ns=8.0, contended=True),
    OpKind.PKT_WRITE: OpCost(mean_ns=290.0, std_ns=55.0, contended=True),
    OpKind.MAP_LOOKUP: OpCost(mean_ns=85.0, std_ns=20.0, contended=True),
    OpKind.MAP_UPDATE: OpCost(mean_ns=130.0, std_ns=30.0, contended=True),
    OpKind.HELPER_KTIME: OpCost(mean_ns=410.0, std_ns=70.0),
    OpKind.HELPER_RINGBUF: OpCost(
        mean_ns=3_900.0,
        std_ns=650.0,
        spike_probability=0.012,
        spike_min_ns=1_500.0,
        spike_max_ns=9_000.0,
        contended=True,
    ),
    OpKind.RETURN: OpCost(mean_ns=2.0, std_ns=0.5),
}


@dataclass(frozen=True)
class Instruction:
    """One operation instance inside a program."""

    kind: OpKind
    comment: str = ""

    def cost(self, table: dict[OpKind, OpCost] | None = None) -> OpCost:
        """The cost entry for this instruction."""
        return (table or DEFAULT_COSTS)[self.kind]
