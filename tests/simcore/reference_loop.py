"""The kernel oracle: a plain event loop over ``EventQueue``.

:class:`EventQueue` is an independent reference queue that orders by an
explicit ``(time, priority, sequence)`` key.  :class:`ReferenceSimulator`
is a :class:`Simulator` whose ``schedule``, ``run``, ``step`` and
``pending_events`` go through it and an obvious peek-pop-fire loop
instead of the simulator's own heap.  Processes, signals and every model
run on it unchanged, so a test can build the same workload on both and
compare the runs event for event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.simcore import PRIORITY_NORMAL, Simulator
from repro.simcore.events import NO_ARG, Event


class EventQueue:
    """The reference queue: a binary heap keyed on ``(time, priority,
    sequence)`` tuples, with lazy cancellation."""

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._sequence = 0
        self._heap: list[tuple[int, int, int, Event]] = []

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def push(
        self,
        time: int,
        callback: Callable[..., Any],
        priority: int = PRIORITY_NORMAL,
        arg: Any = NO_ARG,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event((time, priority, sequence, callback, arg))
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                return event
        raise IndexError("pop from empty event queue")

    def peek_time(self) -> int | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()


class ReferenceSimulator(Simulator):
    def __init__(self, seed=0):
        super().__init__(seed)
        self.queue = EventQueue()

    def schedule(
        self, callback, arg=NO_ARG, /, *, after=None, at=None,
        priority=PRIORITY_NORMAL,
    ):
        if after is not None:
            time = self.now + after
        elif at is not None:
            time = at
        else:
            time = self.now
        assert time >= self.now, "the reference loop never goes back in time"
        self.stats.events_scheduled += 1
        return self.queue.push(time, callback, priority, arg)

    def step(self):
        if not self.queue:
            return False
        event = self.queue.pop()
        self.now = event.time
        self.stats.events_executed += 1
        self.stats.sim_time_ns = self.now
        if event.arg is NO_ARG:
            event.callback()
        else:
            event.callback(event.arg)
        return True

    def run(self, until=None):
        while True:
            time = self.queue.peek_time()
            if time is None or (until is not None and time > until):
                break
            self.step()
        if until is not None and until > self.now:
            self.now = until
        self.stats.sim_time_ns = self.now
        return self.now

    @property
    def pending_events(self):
        return len(self.queue)
