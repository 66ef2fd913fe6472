"""Topology container and builders.

Section 2.3 contrasts industrial topologies — "line, ring, star, or tree,
carefully engineered ... largely static after commissioning" — with
data-center designs (Clos, fat-tree, leaf-spine).  This module holds the
:class:`Topology` container and builders for the line, ring, star and
leaf-spine shapes over one :class:`Device`/:class:`Link` substrate; the
Figure 6 deployments are built on it in :mod:`repro.mlnet.topologies`.
"""

from __future__ import annotations

from typing import Callable

from ..simcore import Simulator
from .device import Device
from .host import Host
from .link import Link
from .packet import Packet
from .queues import QueueDiscipline
from .switch import Switch

#: Industrial copper/fiber run at cell scale: ~100 m => ~500 ns.
DEFAULT_PROP_DELAY_NS = 500
#: Gigabit Ethernet, the common industrial/TSN rate.
DEFAULT_BANDWIDTH_BPS = 1e9


class Topology:
    """A named collection of devices and the links joining them."""

    def __init__(self, sim: Simulator, name: str = "topology") -> None:
        self.sim = sim
        self.name = name
        self.devices: dict[str, Device] = {}
        self.links: list[Link] = []

    # -- construction -------------------------------------------------------

    def add_switch(self, name: str, **kwargs) -> Switch:
        """Create a switch and register it."""
        return self._register(Switch(self.sim, name, **kwargs))

    def add_host(self, name: str) -> Host:
        """Create a host and register it."""
        return self._register(Host(self.sim, name))

    def add_device(self, device: Device) -> Device:
        """Register an externally constructed device (e.g. a P4 switch)."""
        return self._register(device)

    def _register(self, device: Device) -> Device:
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        return device

    def connect(
        self,
        a: "Device | str",
        b: "Device | str",
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation_delay_ns: int = DEFAULT_PROP_DELAY_NS,
        loss_model: Callable[[Packet], bool] | None = None,
        queue_a: QueueDiscipline | None = None,
        queue_b: QueueDiscipline | None = None,
    ) -> Link:
        """Create a full-duplex link between two devices."""
        device_a = self._resolve(a)
        device_b = self._resolve(b)
        port_a = device_a.add_port(queue=queue_a)
        port_b = device_b.add_port(queue=queue_b)
        link = Link(
            self.sim,
            port_a,
            port_b,
            bandwidth_bps=bandwidth_bps,
            propagation_delay_ns=propagation_delay_ns,
            loss_model=loss_model,
        )
        self.links.append(link)
        return link

    def _resolve(self, device: "Device | str") -> Device:
        if isinstance(device, Device):
            return device
        try:
            return self.devices[device]
        except KeyError:
            raise KeyError(f"no device named {device!r} in {self.name}") from None

    # -- queries ------------------------------------------------------------

    def hosts(self) -> list[Host]:
        """All registered hosts, in insertion order."""
        return [d for d in self.devices.values() if isinstance(d, Host)]

    def switches(self) -> list[Switch]:
        """All registered switches, in insertion order."""
        return [d for d in self.devices.values() if isinstance(d, Switch)]

    def adjacency(self, only_up: bool = False) -> dict[str, list[tuple[str, int]]]:
        """Adjacency map: device name -> [(neighbor name, local port index)].

        With ``only_up`` set, administratively/physically down links are
        excluded — the view a reconverging control plane works from.
        """
        result: dict[str, list[tuple[str, int]]] = {
            name: [] for name in self.devices
        }
        for link in self.links:
            if only_up and not link.up:
                continue
            a, b = link.port_a, link.port_b
            result[a.device.name].append((b.device.name, a.index))
            result[b.device.name].append((a.device.name, b.index))
        return result

    def link_between(self, a: str, b: str) -> Link | None:
        """The first link joining devices ``a`` and ``b``, if any."""
        for link in self.links:
            ends = {link.port_a.device.name, link.port_b.device.name}
            if ends == {a, b}:
                return link
        return None

    def is_connected(self) -> bool:
        """True when every device is reachable from every other."""
        if not self.devices:
            return True
        adjacency = self.adjacency()
        start = next(iter(self.devices))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor, _ in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.devices)


# -- builders ----------------------------------------------------------------


def build_line(
    sim: Simulator,
    host_count: int,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    propagation_delay_ns: int = DEFAULT_PROP_DELAY_NS,
) -> Topology:
    """A line of switches, one host per switch — classic fieldbus daisy chain."""
    if host_count < 1:
        raise ValueError("need at least one host")
    topo = Topology(sim, name=f"line{host_count}")
    previous: Switch | None = None
    for i in range(host_count):
        switch = topo.add_switch(f"sw{i}")
        host = topo.add_host(f"h{i}")
        topo.connect(switch, host, bandwidth_bps, propagation_delay_ns)
        if previous is not None:
            topo.connect(previous, switch, bandwidth_bps, propagation_delay_ns)
        previous = switch
    return topo


def build_ring(
    sim: Simulator,
    switch_count: int,
    hosts_per_switch: int = 1,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    propagation_delay_ns: int = DEFAULT_PROP_DELAY_NS,
) -> Topology:
    """An industrial ring (e.g. MRP): switches in a cycle, hosts hanging off.

    Note: ring routing must break the loop; :mod:`repro.net.routing` computes
    loop-free shortest paths, playing the role of the ring protocol's blocked
    port.
    """
    if switch_count < 3:
        raise ValueError("a ring needs at least three switches")
    topo = Topology(sim, name=f"ring{switch_count}")
    switches = [topo.add_switch(f"sw{i}") for i in range(switch_count)]
    for i, switch in enumerate(switches):
        topo.connect(
            switch,
            switches[(i + 1) % switch_count],
            bandwidth_bps,
            propagation_delay_ns,
        )
        for j in range(hosts_per_switch):
            host = topo.add_host(f"h{i}_{j}")
            topo.connect(switch, host, bandwidth_bps, propagation_delay_ns)
    return topo


def build_star(
    sim: Simulator,
    host_count: int,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    propagation_delay_ns: int = DEFAULT_PROP_DELAY_NS,
) -> Topology:
    """One central switch with all hosts attached."""
    if host_count < 1:
        raise ValueError("need at least one host")
    topo = Topology(sim, name=f"star{host_count}")
    center = topo.add_switch("sw0")
    for i in range(host_count):
        host = topo.add_host(f"h{i}")
        topo.connect(center, host, bandwidth_bps, propagation_delay_ns)
    return topo


def build_leaf_spine(
    sim: Simulator,
    leaf_count: int,
    spine_count: int,
    hosts_per_leaf: int,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    uplink_bandwidth_bps: float | None = None,
    propagation_delay_ns: int = DEFAULT_PROP_DELAY_NS,
) -> Topology:
    """A two-tier leaf-spine fabric (every leaf connects to every spine)."""
    if leaf_count < 1 or spine_count < 1:
        raise ValueError("need at least one leaf and one spine")
    uplink = uplink_bandwidth_bps or bandwidth_bps
    topo = Topology(sim, name=f"leafspine_{leaf_count}x{spine_count}")
    spines = [topo.add_switch(f"spine{i}") for i in range(spine_count)]
    for leaf_index in range(leaf_count):
        leaf = topo.add_switch(f"leaf{leaf_index}")
        for spine in spines:
            topo.connect(leaf, spine, uplink, propagation_delay_ns)
        for j in range(hosts_per_leaf):
            host = topo.add_host(f"h{leaf_index}_{j}")
            topo.connect(leaf, host, bandwidth_bps, propagation_delay_ns)
    return topo
