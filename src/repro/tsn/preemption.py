"""802.1Qbu / 802.3br frame preemption.

Strict priority cannot help an express frame that arrives while a 1500-byte
best-effort frame is already on the wire: transmission is non-preemptive
and the express frame eats up to ~12 us of head-of-line blocking per hop
(the exact penalty the TSN-protection ablation measures).  Frame preemption
fixes this: a *preemptable* frame in progress is interrupted at the next
64-byte boundary, the *express* frame is transmitted, and the remainder
continues as a fragment carrying its own 12-byte overhead.

Usage::

    from repro.tsn import enable_preemption
    config = enable_preemption(switch.ports[2])
    ...
    config.preemptions  # how often the express path cut in

Model notes: fragmentation affects *timing* only — the receiver is handed
the complete frame when its final fragment finishes (we do not model
receive-side reassembly state).  A frame may be preempted repeatedly; each
cut honours the 64-byte minimum-fragment rule on both sides, and an
express frame that arrives before the first 64 bytes are out waits for the
boundary, as in 802.3br.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.link import Port
from ..net.packet import Packet

#: Minimum transmittable fragment (802.3br): 64 bytes on the wire.
MIN_FRAGMENT_BYTES = 64
#: Per-additional-fragment overhead: SMD-C header + mCRC.
FRAGMENT_OVERHEAD_BYTES = 12

#: Payload key carrying a fragment's remaining wire bytes.
_REMAINING_KEY = "_preempt_remaining_bytes"


@dataclass
class PreemptionConfig:
    """Express-class selection plus observability counters."""

    express_pcps: frozenset[int] = frozenset({5, 6, 7})
    preemptions: int = 0
    hold_waits: int = 0  # express had to wait for the 64-byte boundary

    def is_express(self, packet: Packet) -> bool:
        """True when the frame belongs to an express class."""
        return packet.pcp in self.express_pcps


class _PreemptingPort:
    """Interruptible transmit machinery, patched over one port."""

    def __init__(self, port: Port, config: PreemptionConfig) -> None:
        self.port = port
        self.config = config
        self._current: Packet | None = None
        self._current_started_ns = 0
        self._current_total_bytes = 0
        self._finish_event = None
        port.send = self._send  # type: ignore[method-assign]
        port.try_transmit = self._try_transmit  # type: ignore[method-assign]
        port.kick = self._try_transmit  # type: ignore[method-assign]

    # -- queue entry -----------------------------------------------------

    def _send(self, packet: Packet) -> None:
        port = self.port
        tel = port._tel
        if not port.queue.enqueue(packet):
            if tel is not None:
                tel.on_drop(packet)
            return
        if tel is not None:
            tel.on_enqueue(packet)
        if (
            self._current is not None
            and self.config.is_express(packet)
            and not self.config.is_express(self._current)
        ):
            self._request_preemption(self._current)
        self._try_transmit()

    # -- transmission ------------------------------------------------------

    def _try_transmit(self) -> None:
        port = self.port
        if self._current is not None or port.link is None or not port.link.up:
            return
        packet = port.queue.dequeue()
        if packet is None:
            return
        remaining = packet.payload.pop(_REMAINING_KEY, None)
        if remaining is None:
            remaining = packet.wire_size_bytes
            if port._tel is not None:
                # Count the frame's bytes once; busy time is
                # reported per fragment as it leaves the wire.
                port._tel.on_transmit(packet, 0)
        self._begin(packet, remaining)

    def _begin(self, packet: Packet, wire_bytes: int) -> None:
        port = self.port
        self._current = packet
        self._current_started_ns = port.sim.now
        self._current_total_bytes = wire_bytes
        self._finish_event = port.sim.schedule(
            lambda: self._finish(packet),
            after=self._bytes_to_ns(wire_bytes),
        )

    def _fragment_sent(self) -> None:
        """Report the wire time of the fragment that ends now."""
        port = self.port
        tx_ns = port.sim.now - self._current_started_ns
        port._m_tx_ns.observe(tx_ns)
        if port._tel is not None:
            port._tel.on_busy(tx_ns)

    def _finish(self, packet: Packet) -> None:
        port = self.port
        self._fragment_sent()
        self._current = None
        self._finish_event = None
        if port.link is not None:
            port.link.propagate(packet, port, port.sim.now)
        self._try_transmit()

    # -- preemption ----------------------------------------------------------

    def _request_preemption(self, victim: Packet) -> None:
        """Cut ``victim`` now, or at the 64-byte boundary if too early."""
        if self._current is not victim or self._finish_event is None:
            return
        sent = self._ns_to_bytes(self.port.sim.now - self._current_started_ns)
        remaining = self._current_total_bytes - sent
        if remaining <= MIN_FRAGMENT_BYTES:
            # Nearly done: finishing is faster than fragmenting.
            return
        if sent < MIN_FRAGMENT_BYTES:
            # 802.3br: the first fragment must reach 64 bytes; hold the
            # express frame until the boundary, then cut.
            self.config.hold_waits += 1
            wait_ns = self._bytes_to_ns(MIN_FRAGMENT_BYTES - sent)
            self.port.sim.schedule(
                lambda: self._request_preemption(victim), after=wait_ns
            )
            return
        self._cut(victim, remaining)

    def _cut(self, victim: Packet, remaining_bytes: int) -> None:
        assert self._finish_event is not None
        self._finish_event.cancel()
        self._finish_event = None
        self._fragment_sent()
        self._current = None
        self.config.preemptions += 1
        victim.payload[_REMAINING_KEY] = (
            remaining_bytes + FRAGMENT_OVERHEAD_BYTES
        )
        self.port.queue.enqueue(victim)
        self._try_transmit()

    # -- unit conversion -------------------------------------------------------

    def _bytes_to_ns(self, size_bytes: int) -> int:
        assert self.port.link is not None
        return round(size_bytes * 8 / self.port.link.bandwidth_bps * 1e9)

    def _ns_to_bytes(self, duration_ns: int) -> int:
        assert self.port.link is not None
        return int(duration_ns * self.port.link.bandwidth_bps / 8e9)


def enable_preemption(
    port: Port, express_pcps: frozenset[int] = frozenset({5, 6, 7})
) -> PreemptionConfig:
    """Enable 802.1Qbu on a port; returns the config with counters.

    Incompatible with a TSN shaper on the same port (gates already remove
    the interference preemption targets); raises if one is installed.
    """
    if port.shaper is not None:
        raise ValueError(
            f"port {port.name} has a time-aware shaper; preemption and "
            f"gating are alternative protections in this model"
        )
    config = PreemptionConfig(express_pcps=express_pcps)
    _PreemptingPort(port, config)
    return config
