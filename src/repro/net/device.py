"""Base class for network devices."""

from __future__ import annotations

from ..simcore import Simulator
from .link import Port
from .packet import Packet
from .queues import QueueDiscipline


class Device:
    """Anything with ports: switches, hosts, programmable data planes."""

    #: When true, links deliver each frame ``processing_delay_ns`` after it
    #: arrives, with the arrival time on ``packet.arrival_ns``, so
    #: :meth:`receive` does ingress and forwarding in one event.
    folds_processing = False

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: list[Port] = []

    def add_port(self, queue: QueueDiscipline | None = None) -> Port:
        """Create and attach a new port."""
        port = Port(self.sim, self, index=len(self.ports), queue=queue)
        self.ports.append(port)
        return port

    def receive(self, packet: Packet, in_port: Port) -> None:
        """Handle an arriving frame.  Subclasses must override."""
        raise NotImplementedError

    def neighbor_devices(self) -> list["Device"]:
        """Devices directly connected to this one."""
        neighbors = []
        for port in self.ports:
            peer = port.peer
            if peer is not None:
                neighbors.append(peer.device)
        return neighbors

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, ports={len(self.ports)})"
