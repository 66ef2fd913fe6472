"""The passive network tap.

Section 3's key measurement trick: a hardware tap stamps frames in *both*
directions with one clock (8 ns precision), eliminating clock-sync error
between endpoints.  :class:`Tap` is a two-port pass-through device that
records a :class:`TapRecord` per frame and forwards the signal without
re-serializing it (a passive tap repeats the wire, it does not queue).
"""

from __future__ import annotations

from typing import NamedTuple

from ..net.device import Device
from ..net.link import Port
from ..net.packet import Packet
from ..simcore import Simulator
from ..simcore.clock import Clock, tap_clock


class TapRecord(NamedTuple):
    """One captured frame."""

    flow_id: str
    sequence: int
    direction: int  # ingress port index (0 = A-side, 1 = B-side)
    timestamp_ns: int  # tap-clock reading
    frame_bytes: int


class Tap(Device):
    """A passive two-port tap with single-clock timestamping."""

    SIDE_A = 0
    SIDE_B = 1

    def __init__(
        self,
        sim: Simulator,
        name: str = "tap",
        clock: Clock | None = None,
        passthrough_ns: int = 8,
    ) -> None:
        super().__init__(sim, name)
        self.clock = clock or tap_clock(name=f"{name}/clock")
        self.passthrough_ns = passthrough_ns
        self.records: list[TapRecord] = []

    def receive(self, packet: Packet, in_port: Port) -> None:
        self.records.append(
            TapRecord(
                packet.flow_id,
                packet.sequence,
                in_port.index,
                self.clock.read(self.sim.now),
                packet.frame_bytes,
            )
        )
        out_port = self.ports[1 - in_port.index]
        link = out_port.link
        if link is None:
            return
        # Passive pass-through: the frame is already on the wire; repeat it
        # to the far side without serializing again.
        link.propagate(packet, out_port, self.sim.now + self.passthrough_ns)
