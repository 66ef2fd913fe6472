"""End hosts.

A :class:`Host` owns one or more ports and dispatches received frames to
registered handlers.  Applications (PLC runtimes, I/O device firmware, ML
clients, traffic generators) attach via :meth:`on_receive` or by subscribing
to a flow id.
"""

from __future__ import annotations

from typing import Callable

from ..obs import get_registry
from ..simcore import Simulator
from .device import Device
from .link import Port
from .packet import Packet
from .packet import TrafficClass

ReceiveHandler = Callable[[Packet], None]


class Host(Device):
    """An end station with handler-based packet delivery."""

    rx_count = property(lambda self: self._m_rx.value)
    tx_count = property(lambda self: self._m_tx.value)

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._handlers: list[ReceiveHandler] = []
        self._flow_handlers: dict[str, list[ReceiveHandler]] = {}
        self.received: list[Packet] = []
        self.record_received = False
        registry = get_registry()
        self._m_rx = registry.counter("net.host.frames", host=name, direction="rx")
        self._m_tx = registry.counter("net.host.frames", host=name, direction="tx")

    def on_receive(self, handler: ReceiveHandler) -> None:
        """Register a handler for every frame addressed to this host."""
        self._handlers.append(handler)

    def on_flow(self, flow_id: str, handler: ReceiveHandler) -> None:
        """Register a handler only for frames of one flow."""
        self._flow_handlers.setdefault(flow_id, []).append(handler)

    def receive(self, packet: Packet, in_port: Port) -> None:
        if packet.dst != self.name and packet.dst != "*":
            # Frame flooded to us but not ours: drop silently like a NIC
            # without promiscuous mode.
            return
        self._m_rx.inc()
        if self.record_received:
            self.received.append(packet)
        for handler in self._handlers:
            handler(packet)
        for handler in self._flow_handlers.get(packet.flow_id, ()):
            handler(packet)

    def send(
        self,
        dst: str,
        payload_bytes: int,
        traffic_class: TrafficClass = TrafficClass.BEST_EFFORT,
        flow_id: str = "",
        payload: dict | None = None,
        sequence: int = 0,
        port_index: int | None = None,
    ) -> Packet:
        """Create a packet and hand it to the given port for egress."""
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no ports")
        packet = Packet(
            src=self.name,
            dst=dst,
            payload_bytes=payload_bytes,
            traffic_class=traffic_class,
            flow_id=flow_id,
            payload=payload or {},
            created_ns=self.sim.now,
            sequence=sequence,
        )
        self._m_tx.inc()
        self.ports[0 if port_index is None else port_index].send(packet)
        return packet
