"""Packet-level network substrate.

Devices (switches, hosts), ports, links, queue disciplines, topology
builders (line, ring, star, leaf-spine), static shortest-path routing, and
the Section 2.3 flow taxonomy with traffic generators.
"""

from .device import Device
from .flows import (
    CyclicSender,
    ELEPHANT_MIN_BYTES,
    FlowKind,
    FlowSpec,
    FlowStats,
    MICE_MAX_BYTES,
    PoissonSender,
    classify_flow,
)
from .host import Host
from .link import Link, Port
from .mrp import RecoveryEvent, RingRedundancyManager
from .packet import (
    ETHERNET_OVERHEAD_BYTES,
    MAX_PAYLOAD_BYTES,
    MIN_FRAME_BYTES,
    Packet,
    TrafficClass,
    VLAN_TAG_BYTES,
    WIRE_EXTRA_BYTES,
)
from .queues import FifoQueue, QueueDiscipline, StrictPriorityQueue
from .routing import (
    bfs_distances,
    install_shortest_path_routes,
    shortest_path,
)
from .switch import Switch
from .topology import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_PROP_DELAY_NS,
    Topology,
    build_leaf_spine,
    build_line,
    build_ring,
    build_star,
)

__all__ = [
    "CyclicSender",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_PROP_DELAY_NS",
    "Device",
    "ELEPHANT_MIN_BYTES",
    "ETHERNET_OVERHEAD_BYTES",
    "FifoQueue",
    "FlowKind",
    "FlowSpec",
    "FlowStats",
    "Host",
    "Link",
    "MAX_PAYLOAD_BYTES",
    "MICE_MAX_BYTES",
    "MIN_FRAME_BYTES",
    "Packet",
    "PoissonSender",
    "Port",
    "QueueDiscipline",
    "RecoveryEvent",
    "RingRedundancyManager",
    "StrictPriorityQueue",
    "Switch",
    "Topology",
    "TrafficClass",
    "VLAN_TAG_BYTES",
    "WIRE_EXTRA_BYTES",
    "bfs_distances",
    "build_leaf_spine",
    "build_line",
    "build_ring",
    "build_star",
    "classify_flow",
    "install_shortest_path_routes",
    "shortest_path",
]
