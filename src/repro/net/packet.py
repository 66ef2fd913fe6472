"""Packets and frames.

A :class:`Packet` is the unit that travels the simulated network.  It is a
layer-2 frame with optional structured payload: industrial protocols
(PROFINET-style cyclic data, Section 2.3's 20-250 byte payloads) and IT
traffic (ML tensors, elephant flows) both map onto it.

Sizes follow Ethernet accounting: ``wire_size_bytes`` adds the 18-byte
Ethernet header+FCS, the 20-byte preamble+IPG, and pads to the 64-byte
minimum frame — small industrial payloads are dominated by this overhead,
which is exactly why PCIe/NIC per-packet costs hurt them (Section 2.1).

``Packet`` is a slotted class with its wire sizes (and the 802.1Q PCP of
its traffic class) precomputed at construction, because the forwarding
hot path reads them several times per hop.  ``payload_bytes`` is
therefore fixed at construction; segment at a higher layer instead of
mutating it.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any

#: Ethernet header (14) + FCS (4).
ETHERNET_OVERHEAD_BYTES = 18
#: 802.1Q VLAN tag, carried by all TSN/industrial frames here.
VLAN_TAG_BYTES = 4
#: Preamble + start-of-frame delimiter (8) + inter-packet gap (12).
WIRE_EXTRA_BYTES = 20
#: Minimum Ethernet frame (header + payload + FCS).
MIN_FRAME_BYTES = 64
#: Maximum standard Ethernet payload.
MAX_PAYLOAD_BYTES = 1500

_packet_ids = itertools.count(1)


class TrafficClass(Enum):
    """Coarse traffic classes used for queueing decisions.

    ``CYCLIC_RT`` is the paper's new flow type: never-ending, deterministic
    microflows (Section 2.3).  The others mirror the standard data-center
    taxonomy (mice / medium / elephant) plus network control.
    """

    NETWORK_CONTROL = 7
    CYCLIC_RT = 6
    ALARM = 5
    LATENCY_SENSITIVE = 4
    BEST_EFFORT = 1
    BULK = 0

    @property
    def pcp(self) -> int:
        """802.1Q Priority Code Point carried in the VLAN tag."""
        return self.value


class Packet:
    """A simulated layer-2 frame.

    Attributes
    ----------
    src, dst:
        Endpoint names (stand-ins for MAC addresses).
    payload_bytes:
        L2 payload size, excluding Ethernet/VLAN overhead.
    traffic_class:
        Queueing class (maps to a PCP value); ``pcp`` caches that value.
    flow_id:
        Identifier of the flow this packet belongs to.
    payload:
        Structured, protocol-specific content (dict), e.g. PROFINET cyclic
        data or an InstaPLC connect request.  Carried by reference — the
        simulator never serializes it.
    created_ns:
        Time the packet was created at its source.
    arrival_ns:
        When the frame last arrived at the end of a link, stamped by the
        link; a switch processes it later (see ``Switch.receive``).
    frame_bytes, wire_size_bytes:
        Precomputed Ethernet frame accounting (see module docstring).
    """

    __slots__ = (
        "src",
        "dst",
        "payload_bytes",
        "traffic_class",
        "flow_id",
        "payload",
        "created_ns",
        "packet_id",
        "sequence",
        "arrival_ns",
        "pcp",
        "frame_bytes",
        "wire_size_bytes",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        payload_bytes: int,
        traffic_class: TrafficClass = TrafficClass.BEST_EFFORT,
        flow_id: str = "",
        payload: dict[str, Any] | None = None,
        created_ns: int = 0,
        packet_id: int | None = None,
        sequence: int = 0,
    ) -> None:
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        if payload_bytes > MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload {payload_bytes}B exceeds Ethernet maximum "
                f"{MAX_PAYLOAD_BYTES}B; segment at a higher layer"
            )
        self.src = src
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.traffic_class = traffic_class
        self.flow_id = flow_id
        self.payload = {} if payload is None else payload
        self.created_ns = created_ns
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.sequence = sequence
        self.arrival_ns = 0
        self.pcp = traffic_class.value
        raw = payload_bytes + ETHERNET_OVERHEAD_BYTES + VLAN_TAG_BYTES
        frame = raw if raw >= MIN_FRAME_BYTES else MIN_FRAME_BYTES
        self.frame_bytes = frame
        self.wire_size_bytes = frame + WIRE_EXTRA_BYTES

    # -- wire accounting -----------------------------------------------------

    def serialization_time_ns(self, bandwidth_bps: float) -> int:
        """Time to clock this frame onto a link of the given bandwidth."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        return round(self.wire_size_bytes * 8 / bandwidth_bps * 1e9)

    def copy_for_replication(self) -> "Packet":
        """A shallow copy with a fresh packet id (for mirroring/replication)."""
        return Packet(
            src=self.src,
            dst=self.dst,
            payload_bytes=self.payload_bytes,
            traffic_class=self.traffic_class,
            flow_id=self.flow_id,
            payload=dict(self.payload),
            created_ns=self.created_ns,
            sequence=self.sequence,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet(#{self.packet_id} {self.src}->{self.dst} "
            f"{self.payload_bytes}B {self.traffic_class.name} "
            f"flow={self.flow_id!r} seq={self.sequence})"
        )
