"""The route oracle: walk installed forwarding tables for loops and dead ends.

:func:`verify_routes` follows every (router, host) pair hop by hop along
the tables :func:`repro.net.routing.install_shortest_path_routes` left on
the devices, independently of how they were computed.  The routing, MRP
and convergence tests check installed routes against it.
"""

from __future__ import annotations

from repro.net.device import Device
from repro.net.topology import Topology


def can_forward(device: Device) -> bool:
    """A device with a forwarding table (anything with ``install_route``)."""
    return hasattr(device, "install_route")


def verify_routes(topo: Topology) -> list[str]:
    """Check installed routes for loops and dead ends.

    Returns a list of human-readable problems (empty = all good).  Walks
    every (router, host) pair along the installed tables, transiting any
    forwarding device.
    """
    problems: list[str] = []
    hosts = {host.name for host in topo.hosts()}
    routers = [
        device for device in topo.devices.values() if can_forward(device)
    ]
    max_hops = len(topo.devices) + 1
    for router in routers:
        for destination in hosts:
            if router.name == destination:
                continue
            current: Device = router
            visited: set[str] = set()
            hops = 0
            while can_forward(current) and current.name != destination:
                if current.name in visited:
                    problems.append(
                        f"loop routing to {destination} starting at {router.name}"
                    )
                    break
                visited.add(current.name)
                out_index = current.forwarding_table.get(destination)  # type: ignore[attr-defined]
                if out_index is None:
                    problems.append(
                        f"{current.name} has no route to {destination}"
                    )
                    break
                peer = current.ports[out_index].peer
                if peer is None:
                    problems.append(
                        f"{current.name} routes {destination} to an unwired port"
                    )
                    break
                current = peer.device
                hops += 1
                if hops > max_hops:
                    problems.append(
                        f"path to {destination} from {router.name} too long"
                    )
                    break
            else:
                if current.name != destination:
                    problems.append(
                        f"route from {router.name} to {destination} "
                        f"ends at {current.name}"
                    )
    return problems
