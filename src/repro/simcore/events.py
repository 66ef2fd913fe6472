"""Events of the discrete-event simulator.

Events are totally ordered by ``(time, priority, sequence)``.  The
monotonically increasing sequence number makes ordering *total* and
therefore deterministic: two events scheduled for the same instant and
priority always fire in scheduling order.

- :class:`Event` — a scheduled callback.  It *is* the entry the
  simulator keeps on its one binary heap: a list ``[time, priority,
  sequence, callback, arg]``, so ``heapq`` orders entries by comparing
  them as C lists and no Python ``__lt__`` ever runs.
- :class:`EventQueue` — an independent reference queue that orders by an
  explicit ``(time, priority, sequence)`` key.  The simulator does not
  use it; ``tests/properties`` runs a plain loop over it as the oracle
  the simulator's runs are compared against.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Callable

#: Default scheduling priority.  Lower values fire first at equal times.
PRIORITY_NORMAL = 0

#: Priority for housekeeping that must run before normal events at an instant
#: (e.g. TSN gate state changes must precede transmissions at the same tick).
PRIORITY_HIGH = -10

#: Priority for observers that must see the final state of an instant.
PRIORITY_LOW = 10


#: ``Event.arg`` of an event whose callback takes no argument.
NO_ARG: Any = object()


class Event(list):
    """A scheduled callback: the list ``[time, priority, sequence,
    callback, arg]``.

    Firing calls ``callback()``, or ``callback(arg)`` when ``arg`` is not
    :data:`NO_ARG` — so hot paths schedule a bound method plus its one
    argument instead of allocating a closure per event.

    Each scheduled event is a fresh entry and no entry is ever reused, so
    a retained handle always names the event it was returned for.
    :meth:`cancel` clears the callback slot, which is how the run loop
    recognises a cancelled entry when it pops it; cancelling an event
    that already fired has no effect.  Being a list, an event is
    unhashable and compares by value, so keep handles in attributes or
    lists, not in sets or as dict keys.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    priority = property(itemgetter(1))
    sequence = property(itemgetter(2))
    #: The callback, or ``None`` once the event is cancelled.
    callback = property(itemgetter(3))
    arg = property(itemgetter(4))

    @property
    def cancelled(self) -> bool:
        return self[3] is None

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Cancellation is O(1); the entry stays on the heap until it is
        popped and dropped.  It also releases the callback and argument.
        """
        self[3] = None
        self[4] = NO_ARG

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(t={self.time}, prio={self.priority}, "
            f"seq={self.sequence}{state})"
        )


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
