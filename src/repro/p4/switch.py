"""The programmable switch device: a P4 pipeline behind real ports.

Plays the role of the paper's DPDK SWX software switch: frames arriving on
any port run through the :class:`P4Pipeline`; the deparser applies field
rewrites back onto the frame; egress replication sends copies out every
selected port; digests are delivered to control-plane listeners.  The
control plane is plain Python calling :meth:`table`, :meth:`register`, and
:meth:`inject` — the paper's architecture exactly (P4 data plane, Python
control plane).
"""

from __future__ import annotations

from typing import Any, Callable

from ..net.device import Device
from ..net.link import Port
from ..net.packet import Packet
from ..obs import get_registry
from ..simcore import Simulator
from .pipeline import P4Pipeline, PacketContext, Register, Table

#: Fields the deparser writes back onto the frame when actions changed them.
REWRITABLE_FIELDS = ("src", "dst", "flow_id")

DigestListener = Callable[[dict[str, Any], PacketContext], None]


def default_parser(packet: Packet, ingress_port: int) -> dict[str, Any]:
    """Extract the header fields InstaPLC-style applications match on."""
    return {
        "src": packet.src,
        "dst": packet.dst,
        "flow_id": packet.flow_id,
        "msg_type": packet.payload.get("type", ""),
        "device": packet.payload.get("device", ""),
        "ingress_port": ingress_port,
        "pcp": packet.pcp,
    }


class P4Switch(Device):
    """A software switch executing one P4 pipeline."""

    processed_frames = property(lambda self: self._m_processed.value)
    dropped_frames = property(lambda self: self._m_dropped.value)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        pipeline: P4Pipeline | None = None,
        processing_delay_ns: int = 2_000,
    ) -> None:
        super().__init__(sim, name)
        self.pipeline = pipeline or P4Pipeline(
            name=f"{name}/pipeline", parser=default_parser
        )
        self.processing_delay_ns = processing_delay_ns
        self._digest_listeners: list[DigestListener] = []
        registry = get_registry()
        self._m_processed = registry.counter(
            "p4.switch.frames", switch=name, outcome="processed"
        )
        self._m_dropped = registry.counter(
            "p4.switch.frames", switch=name, outcome="dropped"
        )
        #: observers called on (packet, ingress_port_index) for monitoring
        self.ingress_taps: list[Callable[[Packet, int], None]] = []
        #: observers called on (packet, egress_port_index)
        self.egress_taps: list[Callable[[Packet, int], None]] = []

    # -- control-plane API ---------------------------------------------------

    def table(self, name: str) -> Table:
        """Access a pipeline table by name."""
        return self.pipeline.tables[name]

    def register(self, name: str) -> Register:
        """Access a pipeline register by name."""
        return self.pipeline.registers[name]

    def on_digest(self, listener: DigestListener) -> None:
        """Subscribe to data-plane digests."""
        self._digest_listeners.append(listener)

    def inject(self, packet: Packet, egress_port: int) -> None:
        """Control-plane packet-out: emit a frame on a port directly."""
        if not 0 <= egress_port < len(self.ports):
            raise ValueError(f"no port {egress_port} on {self.name}")
        for tap in self.egress_taps:
            tap(packet, egress_port)
        self.ports[egress_port].send(packet)

    # -- data plane ----------------------------------------------------------

    def receive(self, packet: Packet, in_port: Port) -> None:
        for tap in self.ingress_taps:
            tap(packet, in_port.index)
        self.sim.schedule(
            lambda: self._process(packet, in_port.index),
            after=self.processing_delay_ns,
        )

    def _process(self, packet: Packet, ingress_index: int) -> None:
        self._m_processed.inc()
        ctx = self.pipeline.process(packet, ingress_index)
        for digest_data in ctx.digests:
            for listener in self._digest_listeners:
                listener(digest_data, ctx)
        for egress_index, overrides in ctx.clones:
            if not 0 <= egress_index < len(self.ports):
                continue
            clone = ctx.packet.copy_for_replication()
            for field_name, value in overrides.items():
                if field_name not in REWRITABLE_FIELDS:
                    raise ValueError(f"cannot rewrite field {field_name!r}")
                setattr(clone, field_name, value)
            for tap in self.egress_taps:
                tap(clone, egress_index)
            self.ports[egress_index].send(clone)
        if ctx.dropped or not ctx.egress_ports:
            if not ctx.clones:
                self._m_dropped.inc()
            return
        for egress_index in ctx.egress_ports:
            if not 0 <= egress_index < len(self.ports):
                continue
            out = self._deparse(ctx)
            for tap in self.egress_taps:
                tap(out, egress_index)
            self.ports[egress_index].send(out)

    def _deparse(self, ctx: PacketContext) -> Packet:
        """Fold rewritten fields into a fresh frame copy."""
        out = ctx.packet.copy_for_replication()
        for field_name in REWRITABLE_FIELDS:
            value = ctx.fields.get(field_name)
            if value is not None:
                setattr(out, field_name, value)
        return out
