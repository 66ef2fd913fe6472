"""Store-and-forward Ethernet switch.

The switch forwards by destination name using either a static forwarding
table (installed by :mod:`repro.net.routing`) or MAC-style learning with
flooding.  A configurable processing latency models the store-and-forward
pipeline (lookup + switching fabric), which for industrial switches is a
documented per-hop cost.

A hop costs one arrival-plus-processing event, which the upstream port
schedules when it starts the frame, for ``propagation_delay_ns +
processing_delay_ns`` after serialization ends; a frame that queues behind
another at the egress port adds one wake there.  Ingress work (rx
counters, learning) therefore runs at arrival +
processing, but sees the true arrival time via ``packet.arrival_ns``.
"""

from __future__ import annotations

from typing import Callable

from ..obs import get_registry
from ..simcore import Simulator
from .device import Device
from .link import Port
from .packet import Packet
from .queues import QueueDiscipline, StrictPriorityQueue


class Switch(Device):
    """A learning switch with per-port strict-priority egress queues."""

    folds_processing = True
    forwarded_frames = property(lambda self: self._m_forwarded.value)
    flooded_frames = property(lambda self: self._m_flooded.value)
    filtered_frames = property(lambda self: self._m_filtered.value)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        processing_delay_ns: int = 1_000,
        queue_factory: Callable[[], QueueDiscipline] | None = None,
    ) -> None:
        super().__init__(sim, name)
        if processing_delay_ns < 0:
            raise ValueError("processing delay cannot be negative")
        self.processing_delay_ns = processing_delay_ns
        self._queue_factory = queue_factory or StrictPriorityQueue
        #: destination name -> egress port index (static routes win over
        #: learned entries)
        self.forwarding_table: dict[str, int] = {}
        self._learned: dict[str, int] = {}
        self.learning_enabled = True
        registry = get_registry()
        self._m_forwarded = registry.counter(
            "net.switch.frames", switch=name, outcome="forwarded"
        )
        self._m_flooded = registry.counter(
            "net.switch.frames", switch=name, outcome="flooded"
        )
        self._m_filtered = registry.counter(
            "net.switch.frames", switch=name, outcome="filtered"
        )

    def add_port(self, queue: QueueDiscipline | None = None) -> Port:
        """Attach a port, defaulting to this switch's queue factory."""
        if queue is None:
            queue = self._queue_factory()
        return super().add_port(queue=queue)

    def install_route(self, destination: str, port_index: int) -> None:
        """Pin a static route for ``destination`` to a local port."""
        if not 0 <= port_index < len(self.ports):
            raise ValueError(
                f"{self.name}: port {port_index} does not exist "
                f"(have {len(self.ports)})"
            )
        self.forwarding_table[destination] = port_index

    def receive(self, packet: Packet, in_port: Port) -> None:
        """Learn, look up, and forward; runs once processing is done.

        The link calls this ``processing_delay_ns`` after the frame arrived
        at ``packet.arrival_ns``.
        """
        if self.learning_enabled and packet.src:
            self._learned[packet.src] = in_port.index
        out_index = self.forwarding_table.get(packet.dst)
        if out_index is None:
            out_index = self._learned.get(packet.dst)
        if out_index is None:
            self._flood(packet, in_port)
            return
        if out_index == in_port.index:
            # Destination is back where the frame came from: filter it, as a
            # real bridge would.
            self._m_filtered.inc()
            return
        self._m_forwarded.inc()
        self.ports[out_index].send(packet)

    def _flood(self, packet: Packet, in_port: Port) -> None:
        self._m_flooded.inc()
        for port in self.ports:
            if port.index != in_port.index and port.link is not None:
                port.send(packet.copy_for_replication())

    def clear_learned(self) -> None:
        """Forget all dynamically learned addresses."""
        self._learned.clear()
