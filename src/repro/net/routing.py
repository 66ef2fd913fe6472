"""Static shortest-path routing.

Industrial networks are commissioned with fixed routes (Section 2.3), so we
precompute shortest paths and install static forwarding entries on every
switch.  When several equal-cost next hops exist (leaf-spine fabrics), the
tie is broken by a deterministic hash of ``(device, destination)`` — a
static-table stand-in for ECMP that spreads destinations across spines.

Paths may only *transit* devices that can forward; a plain host can be an
endpoint but never a relay, which BFS respects via the transit set.
"""

from __future__ import annotations

import hashlib
from collections import deque

from .device import Device
from .topology import Topology


def _can_forward(device: Device) -> bool:
    return hasattr(device, "install_route")


def bfs_distances(
    adjacency: dict[str, list[tuple[str, int]]],
    source: str,
    transit: set[str] | None = None,
) -> dict[str, int]:
    """Hop distance from ``source`` to every reachable device.

    With ``transit`` given, only the source and members of ``transit`` are
    expanded — other nodes can terminate a path but not relay it.
    """
    distances = {source: 0}
    frontier: deque[str] = deque([source])
    while frontier:
        current = frontier.popleft()
        if transit is not None and current != source and current not in transit:
            continue
        for neighbor, _ in adjacency[current]:
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                frontier.append(neighbor)
    return distances


def _tie_break(device_name: str, destination: str, choices: int, seed: int) -> int:
    digest = hashlib.sha256(
        f"{seed}/{device_name}/{destination}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "little") % choices


def _transit_set(topo: Topology) -> set[str]:
    return {
        name for name, device in topo.devices.items() if _can_forward(device)
    }


def shortest_path(topo: Topology, src: str, dst: str) -> list[str]:
    """Device names along one shortest valid path from ``src`` to ``dst``."""
    adjacency = topo.adjacency()
    transit = _transit_set(topo)
    distances = bfs_distances(adjacency, dst, transit=transit)
    if src not in distances:
        raise ValueError(f"no path from {src!r} to {dst!r}")
    path = [src]
    current = src
    while current != dst:
        candidates = [
            neighbor
            for neighbor, _ in adjacency[current]
            if distances.get(neighbor, float("inf")) == distances[current] - 1
            and (neighbor in transit or neighbor == dst)
        ]
        current = sorted(candidates)[0]
        path.append(current)
    return path


def install_shortest_path_routes(
    topo: Topology,
    ecmp_seed: int = 0,
    respect_link_state: bool = False,
    clear_first: bool = False,
) -> int:
    """Install static routes on all forwarding devices for every host.

    Returns the number of table entries installed.  Routes are loop-free by
    construction (each entry strictly decreases the BFS distance to the
    destination), which is what a ring-redundancy protocol's blocked port
    achieves in a physical ring.

    ``respect_link_state`` routes around down links (used by reconvergence
    after a failure); ``clear_first`` wipes existing tables so stale
    entries cannot shadow the new ones.
    """
    adjacency = topo.adjacency(only_up=respect_link_state)
    transit = _transit_set(topo)
    if clear_first:
        for device in topo.devices.values():
            if _can_forward(device):
                device.forwarding_table.clear()  # type: ignore[attr-defined]
    routers = [
        device for device in topo.devices.values() if _can_forward(device)
    ]
    installed = 0
    for host in topo.hosts():
        distances = bfs_distances(adjacency, host.name, transit=transit)
        for router in routers:
            if router.name not in distances or router.name == host.name:
                continue
            next_hops = [
                (neighbor, port_index)
                for neighbor, port_index in adjacency[router.name]
                if distances.get(neighbor, float("inf"))
                == distances[router.name] - 1
                and (neighbor in transit or neighbor == host.name)
            ]
            if not next_hops:
                continue
            next_hops.sort()
            choice = _tie_break(router.name, host.name, len(next_hops), ecmp_seed)
            _, port_index = next_hops[choice]
            router.install_route(host.name, port_index)
            installed += 1
    return installed
