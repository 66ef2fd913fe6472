"""Ports and links.

A :class:`Port` belongs to a device and owns an egress queue; a
:class:`Link` joins exactly two ports.  Transmission is modeled in two
stages, as on real Ethernet:

1. **Serialization** — the frame occupies the transmitting port for
   ``wire_size / bandwidth``, until ``busy_until_ns``; further frames queue.
2. **Propagation** — after serialization the frame travels for the link's
   propagation delay and is handed to the peer device.  A device with
   ``folds_processing`` (a :class:`~repro.net.switch.Switch`) is handed the
   frame ``processing_delay_ns`` later instead, so arrival and forwarding
   cost one event; the arrival time rides on ``packet.arrival_ns``.

A port that starts a frame schedules its far-end delivery at once, so a
frame costs one event per link.  A second, *wake* event is scheduled only
while a frame waits behind the one on the wire: it runs
:meth:`Port.try_transmit` at ``busy_until_ns``, where strict-priority
selection must happen.

Links can be administratively downed (failure injection) and can drop frames
through a pluggable loss model — both are needed for the availability
experiments of Section 4.  Both are decided when the frame lands, as of the
instant its serialization ended (see :meth:`Link.set_down`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..obs import get_registry, get_telemetry
from ..simcore import Simulator
from .packet import Packet
from .queues import QueueDiscipline, StrictPriorityQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import Device


class Port:
    """One device-side endpoint of a link, with an egress queue."""

    def __init__(
        self,
        sim: Simulator,
        device: "Device",
        index: int,
        queue: QueueDiscipline | None = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.index = index
        # Explicit None check: an empty queue has len() == 0 and is falsy.
        self.queue: QueueDiscipline = (
            queue if queue is not None else StrictPriorityQueue()
        )
        self.link: Optional[Link] = None
        self.shaper = None  # set by repro.tsn when the port is TSN-scheduled
        #: When the frame on the wire finishes serializing; idle at or after.
        self.busy_until_ns = 0
        #: Whether a wake event is pending (at most one per port).
        self._wake_pending = False
        #: wire_size_bytes -> serialization ns, valid for ``_tx_cache_bw``.
        self._tx_cache: dict[int, int] = {}
        self._tx_cache_bw = 0.0
        #: Set by ``Link.__init__``; the port on the far end of our link.
        self._peer_port: Optional[Port] = None
        # One shared per-frame serialization-time histogram across all
        # ports (ns buckets); null and free when observability is off.
        self._m_tx_ns = get_registry().histogram("net.port.tx_ns")
        # In-band telemetry probe, or None when the plane is inactive;
        # hot paths pay one attribute load + None test.
        self._tel = get_telemetry().port_probe(self)

    @property
    def name(self) -> str:
        """Human-readable port name, e.g. ``switch1[2]``."""
        return f"{self.device.name}[{self.index}]"

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the other end of the link, if connected."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def send(self, packet: Packet) -> None:
        """Queue a frame for egress and start transmitting if idle."""
        if self.shaper is None and self.busy_until_ns <= self.sim.now:
            link = self.link
            if link is not None and link.up and len(self.queue) == 0:
                # Idle unshaped port, empty queue: the frame would be
                # enqueued and immediately dequeued — transmit directly.
                self._begin_transmit(packet, link)
                return
        tel = self._tel
        if not self.queue.enqueue(packet):
            if tel is not None:
                tel.on_drop(packet)
            return
        if tel is not None:
            tel.on_enqueue(packet)
        self.try_transmit()

    def kick(self) -> None:
        """Re-evaluate transmission (called by shapers on gate changes)."""
        self.try_transmit()

    def try_transmit(self) -> None:
        """Start the next eligible frame if idle; if busy, arm the wake."""
        if self.busy_until_ns > self.sim.now:
            self._arm_wake()
            return
        link = self.link
        if link is None or not link.up:
            return
        if self.shaper is not None:
            packet, retry_ns = self.shaper.select(
                self.sim.now, self.queue, link.bandwidth_bps
            )
            if packet is None:
                if retry_ns is not None and retry_ns > 0:
                    self.sim.schedule(self.try_transmit, after=retry_ns)
                return
        else:
            packet = self.queue.dequeue()
            if packet is None:
                return
        self._begin_transmit(packet, link)
        self._arm_wake()

    def _begin_transmit(self, packet: Packet, link: "Link") -> None:
        """Clock ``packet`` out on idle ``link`` and schedule its delivery."""
        # Serialization time depends only on (wire size, bandwidth); memoise
        # per port, re-keyed whenever the link bandwidth changes.
        if link.bandwidth_bps != self._tx_cache_bw:
            self._tx_cache_bw = link.bandwidth_bps
            self._tx_cache = {}
        wire = packet.wire_size_bytes
        tx_ns = self._tx_cache.get(wire)
        if tx_ns is None:
            tx_ns = packet.serialization_time_ns(link.bandwidth_bps)
            self._tx_cache[wire] = tx_ns
        self._m_tx_ns.observe(tx_ns)
        tel = self._tel
        if tel is not None:
            tel.on_transmit(packet, tx_ns)
        end_ns = self.sim.now + tx_ns
        self.busy_until_ns = end_ns
        link.propagate(packet, self, end_ns)

    def _arm_wake(self) -> None:
        """Wake at ``busy_until_ns`` if a frame waits; at most one pending."""
        if not self._wake_pending and len(self.queue):
            self._wake_pending = True
            self.sim.schedule(self._wake, at=self.busy_until_ns)

    def _wake(self) -> None:
        self._wake_pending = False
        self.try_transmit()

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a frame arrives at this port.

        For a ``folds_processing`` device this runs at arrival plus the
        device's processing delay (see :meth:`Link.propagate`).  A frame
        the link lost (see :meth:`Link.set_down`) is dropped here.
        """
        link = self.link
        if (link.loss_model is not None or link._transitions) and (
            link._lost(packet)
        ):
            return
        self.device.receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Port({self.name})"


class Link:
    """A full-duplex point-to-point link between two ports."""

    def __init__(
        self,
        sim: Simulator,
        port_a: Port,
        port_b: Port,
        bandwidth_bps: float = 1e9,
        propagation_delay_ns: int = 500,
        loss_model: Callable[[Packet], bool] | None = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.port_a = port_a
        self.port_b = port_b
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay_ns = propagation_delay_ns
        self.loss_model = loss_model
        self.up = True
        #: ``(time_ns, up)`` per state change by set_down/set_up, read when
        #: a frame lands to decide whether it was lost.
        self._transitions: list[tuple[int, bool]] = []
        self.lost_frames = 0
        port_a.link = self
        port_b.link = self
        port_a._peer_port = port_b
        port_b._peer_port = port_a
        # One transition counter per link; null and free when obs is off.
        self._m_transitions = get_registry().counter(
            "net.link.state_changes", link=self.name
        )
        # State transitions go to the flight recorder (None when off).
        hub = get_telemetry()
        self._hub = hub if hub.enabled else None

    @property
    def name(self) -> str:
        """Human-readable link name, e.g. ``cell0[0]<->leaf0[2]``."""
        return f"{self.port_a.name}<->{self.port_b.name}"

    def other_end(self, port: Port) -> Port:
        """The port opposite ``port`` on this link."""
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise ValueError(f"{port!r} is not attached to this link")

    def propagate(self, packet: Packet, from_port: Port, end_ns: int) -> None:
        """Carry a frame whose serialization ends at ``end_ns`` to the far end.

        Schedules the peer port's :meth:`Port.deliver` for the arrival
        (plus processing, for a ``folds_processing`` device), which drops
        the frame if the link lost it.
        """
        destination = from_port._peer_port
        device = destination.device
        arrival_ns = end_ns + self.propagation_delay_ns
        packet.arrival_ns = arrival_ns
        if device.folds_processing:
            arrival_ns += device.processing_delay_ns
        self.sim.schedule(destination.deliver, packet, at=arrival_ns)

    def _lost(self, packet: Packet) -> bool:
        """Decide (and count) a landing frame's loss: down link, then model."""
        end_ns = packet.arrival_ns - self.propagation_delay_ns
        for time_ns, up in reversed(self._transitions):
            if time_ns <= end_ns:
                if not up:
                    self.lost_frames += 1
                    return True
                break
        if self.loss_model is not None and self.loss_model(packet):
            self.lost_frames += 1
            return True
        return False

    def set_up(self) -> None:
        """Restore the link and restart any stalled transmissions."""
        if not self.up:
            self._m_transitions.inc()
            if self._hub is not None:
                self._hub.flight.note(self.name, self.sim.now, "link.up")
            self._transitions.append((self.sim.now, True))
        self.up = True
        self.port_a.try_transmit()
        self.port_b.try_transmit()

    def set_down(self) -> None:
        """Fail the link: queued frames stall until :meth:`set_up`.

        A frame is lost iff the link is down at the instant its
        serialization ends (a change at that very instant counts).  A frame
        downed and restored within its serialization survives, and a frame
        already propagating when the link fails still arrives.
        """
        if self.up:
            self._m_transitions.inc()
            if self._hub is not None:
                self._hub.flight.note(self.name, self.sim.now, "link.down")
            self._transitions.append((self.sim.now, False))
        self.up = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"Link({self.port_a.name}<->{self.port_b.name}, {state})"
