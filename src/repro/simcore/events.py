"""Events of the discrete-event simulator.

Events are totally ordered by ``(time, priority, sequence)``.  The
monotonically increasing sequence number makes ordering *total* and
therefore deterministic: two events scheduled for the same instant and
priority always fire in scheduling order.

- :class:`Event` — a scheduled callback.  It *is* the entry the
  simulator keeps on its one binary heap: a list ``[time, priority,
  sequence, callback, arg]``, so ``heapq`` orders entries by comparing
  them as C lists and no Python ``__lt__`` ever runs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

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
