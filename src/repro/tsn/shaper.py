"""The 802.1Qbv time-aware shaper.

Attached to a port (``port.shaper = TimeAwareShaper(...)``), the shaper
gates which PCP queues may transmit.  It enforces the *guard band* rule: a
frame is only released if its serialization completes before its gate
closes, so a late best-effort frame can never stretch into the protected
real-time window.
"""

from __future__ import annotations

from ..net.packet import Packet
from ..net.queues import StrictPriorityQueue
from ..obs import get_registry
from .gcl import GateControlList


class TimeAwareShaper:
    """Gate-driven transmission selection for one egress port."""

    guard_band_blocks = property(lambda self: self._m_guard_band.value)
    gate_closed_blocks = property(lambda self: self._m_gate_closed.value)

    def __init__(self, gcl: GateControlList) -> None:
        gcl.validate()
        self.gcl = gcl
        registry = get_registry()
        self._m_guard_band = registry.counter(
            "tsn.shaper.blocks", reason="guard_band"
        )
        self._m_gate_closed = registry.counter(
            "tsn.shaper.blocks", reason="gate_closed"
        )

    def select(
        self,
        now_ns: int,
        queue: StrictPriorityQueue,
        bandwidth_bps: float,
    ) -> tuple[Packet | None, int | None]:
        """Pick the next transmittable frame.

        Returns ``(packet, None)`` when a frame may start now, or
        ``(None, retry_delay_ns)`` when the port must re-evaluate later
        (gate closed, or open but guard band blocks the head frame).
        ``(None, None)`` means all queues are empty.
        """
        if not isinstance(queue, StrictPriorityQueue):
            raise TypeError("time-aware shaping requires a StrictPriorityQueue")
        if len(queue) == 0:
            return None, None
        open_pcps, until_change = self.gcl.state_at(now_ns)
        any_blocked = False
        # Per 802.1Qbv transmission selection: highest-priority open queue
        # whose head frame fits in its remaining gate-open time wins.
        for pcp in sorted(open_pcps, reverse=True):
            candidate = queue.peek_from([pcp])
            if candidate is None:
                continue
            tx_ns = candidate.serialization_time_ns(bandwidth_bps)
            window = self.gcl.gate_open_until(now_ns, pcp)
            if tx_ns > window:
                # Guard band: this frame cannot finish before its gate
                # closes; hold it and consider lower-priority queues.
                self._m_guard_band.inc()
                any_blocked = True
                continue
            return queue.dequeue_from([pcp]), None
        if not any_blocked:
            self._m_gate_closed.inc()
        return None, until_change
