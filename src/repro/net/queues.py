"""Egress queue disciplines.

Each output port owns a queue discipline deciding which frame transmits
next.  Three disciplines cover the paper's scenarios:

- :class:`FifoQueue` — plain store-and-forward (legacy industrial switches);
- :class:`StrictPriorityQueue` — 802.1Q strict priority by PCP, the default
  for converged IT/OT switches here;
- the TSN time-aware shaper lives in :mod:`repro.tsn.shaper` and wraps one
  of these per gate.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Protocol

from ..obs import get_registry
from .packet import Packet


class QueueDiscipline(Protocol):
    """Interface every egress queue implements."""

    def enqueue(self, packet: Packet) -> bool:
        """Accept a frame.  Returns ``False`` when the frame was dropped."""
        ...

    def dequeue(self) -> Packet | None:
        """Pop the next frame to transmit, or ``None`` when empty."""
        ...

    def __len__(self) -> int:
        ...

    def class_depth(self, pcp: int) -> int:
        """Frames queued for one PCP class (telemetry samplers read this;
        single-class disciplines report their total depth)."""
        ...


class FifoQueue:
    """Single FIFO with a finite capacity (drop-tail)."""

    drops = property(lambda self: self._m_drops.value)

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._queue: deque[Packet] = deque()
        # Queues carry no identity, so drops aggregate per discipline kind.
        self._m_drops = get_registry().counter("net.queue.drops", kind="fifo")

    def enqueue(self, packet: Packet) -> bool:
        if len(self._queue) >= self.capacity:
            self._m_drops.inc()
            return False
        self._queue.append(packet)
        return True

    def dequeue(self) -> Packet | None:
        if not self._queue:
            return None
        return self._queue.popleft()

    def class_depth(self, pcp: int) -> int:
        """A FIFO has one class; every PCP reports the total depth."""
        return len(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class StrictPriorityQueue:
    """Eight PCP-indexed FIFOs served in strict priority order.

    Higher PCP always wins; within a PCP, FIFO order.  This is the 802.1Q
    default transmission-selection algorithm.
    """

    PCP_LEVELS = 8
    drops = property(lambda self: self._m_drops.value)

    def __init__(self, capacity_per_class: int = 500) -> None:
        if capacity_per_class < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity_per_class = capacity_per_class
        self._queues: list[deque[Packet]] = [
            deque() for _ in range(self.PCP_LEVELS)
        ]
        #: Bitmask of non-empty PCP classes; bit_length()-1 is the highest
        #: occupied priority, making dequeue O(1) instead of an 8-way scan.
        self._occupied = 0
        self._size = 0
        self._m_drops = get_registry().counter(
            "net.queue.drops", kind="strict_priority"
        )

    def enqueue(self, packet: Packet) -> bool:
        pcp = packet.pcp
        queue = self._queues[pcp]
        if len(queue) >= self.capacity_per_class:
            self._m_drops.inc()
            return False
        queue.append(packet)
        self._occupied |= 1 << pcp
        self._size += 1
        return True

    def dequeue(self) -> Packet | None:
        mask = self._occupied
        if not mask:
            return None
        pcp = mask.bit_length() - 1
        queue = self._queues[pcp]
        packet = queue.popleft()
        if not queue:
            self._occupied = mask ^ (1 << pcp)
        self._size -= 1
        return packet

    def dequeue_from(self, allowed_pcps: Iterable[int]) -> Packet | None:
        """Pop the highest-priority frame among the allowed PCPs only.

        Used by the TSN time-aware shaper: only queues whose gate is open
        may transmit.
        """
        allowed = (
            allowed_pcps
            if isinstance(allowed_pcps, (set, frozenset))
            else set(allowed_pcps)
        )
        queues = self._queues
        for pcp in range(self.PCP_LEVELS - 1, -1, -1):
            if pcp in allowed and queues[pcp]:
                packet = queues[pcp].popleft()
                if not queues[pcp]:
                    self._occupied &= ~(1 << pcp)
                self._size -= 1
                return packet
        return None

    def peek_from(self, allowed_pcps: Iterable[int]) -> Packet | None:
        """Like :meth:`dequeue_from` but without removing the frame."""
        allowed = (
            allowed_pcps
            if isinstance(allowed_pcps, (set, frozenset))
            else set(allowed_pcps)
        )
        queues = self._queues
        for pcp in range(self.PCP_LEVELS - 1, -1, -1):
            if pcp in allowed and queues[pcp]:
                return queues[pcp][0]
        return None

    def class_depth(self, pcp: int) -> int:
        """Frames queued for one PCP class (O(1); samplers poll this)."""
        return len(self._queues[pcp])

    def occupancy_by_pcp(self) -> dict[int, int]:
        """Queue depth per PCP (only non-empty classes)."""
        return {
            pcp: len(queue)
            for pcp, queue in enumerate(self._queues)
            if queue
        }

    def __len__(self) -> int:
        return self._size
