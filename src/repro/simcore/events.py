"""Event scheduling backends for the discrete-event simulator.

Events are totally ordered by ``(time, priority, sequence)``.  The
monotonically increasing sequence number makes ordering *total* and
therefore deterministic: two events scheduled for the same instant and
priority always fire in scheduling order, independent of backend
internals.

Two interchangeable backends implement the :class:`Scheduler` protocol:

- :class:`EventQueue` — the reference backend, a single binary heap.
  Simple, obviously correct, O(log n) per operation.
- :class:`CalendarQueue` — the default backend, a bucket (calendar)
  queue: events are grouped into per-timestamp buckets and only the
  *distinct timestamps* live in a small heap.  Pushing into an existing
  bucket is O(1), popping is O(1) amortized, and no Python-level
  ``Event`` comparisons happen at all — the heap holds bare integers.
  Both backends pop in exactly the same ``(time, priority, sequence)``
  order; ``tests/properties`` asserts the equivalence on randomized
  workloads.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

#: Default scheduling priority.  Lower values fire first at equal times.
PRIORITY_NORMAL = 0

#: Priority for housekeeping that must run before normal events at an instant
#: (e.g. TSN gate state changes must precede transmissions at the same tick).
PRIORITY_HIGH = -10

#: Priority for observers that must see the final state of an instant.
PRIORITY_LOW = 10


#: ``Event.arg`` of an event whose callback takes no argument.
NO_ARG: Any = object()


class Event:
    """A scheduled callback, ordered by ``(time, priority, sequence)``.

    Firing calls ``callback()``, or ``callback(arg)`` when ``arg`` is not
    :data:`NO_ARG` — so hot paths schedule a bound method plus its one
    argument instead of allocating a closure per event.

    Each ``push`` creates a fresh event and no event is ever reused, so a
    retained handle always names the event it was returned for;
    :meth:`cancel` is only meaningful while the event is still pending.
    """

    __slots__ = (
        "time", "priority", "sequence", "callback", "arg", "cancelled",
    )

    def __init__(
        self,
        time: int,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        arg: Any = NO_ARG,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.arg = arg
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Cancellation is O(1); the backend lazily discards the entry.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(t={self.time}, prio={self.priority}, "
            f"seq={self.sequence}{state})"
        )


@runtime_checkable
class Scheduler(Protocol):
    """The pluggable event-scheduling backend behind :class:`Simulator`.

    Implementations must pop in ``(time, priority, sequence)`` order and
    support lazy cancellation.  ``pop_batch``/``requeue``/``batch_dirty``
    exist so the simulator run loop can drain all events of one instant
    in a single call (batched timer firing) while staying bit-identical
    with one-at-a-time popping.
    """

    #: Set by ``push`` whenever an event lands at or before the time of
    #: the batch currently being drained (see :meth:`pop_batch`).
    batch_dirty: bool

    def push(
        self,
        time: int,
        callback: Callable[..., Any],
        priority: int = PRIORITY_NORMAL,
        arg: Any = NO_ARG,
    ) -> Event:
        """Schedule ``callback`` (``callback(arg)`` if given) at ``time``."""
        ...

    def pop(self) -> Event:
        """Remove and return the earliest live event (IndexError if none)."""
        ...

    def pop_batch(self, until: int | None = None) -> list[Event]:
        """Remove and return *all* live events at the earliest instant.

        Returns ``[]`` when the queue is drained or the earliest event
        lies beyond ``until``.  Resets :attr:`batch_dirty`; a subsequent
        ``push`` at or before the batch's time sets it again, signalling
        the caller to :meth:`requeue` the unexecuted remainder so the
        total order is preserved.
        """
        ...

    def requeue(self, events: Iterable[Event]) -> None:
        """Reinsert not-yet-executed batch events, keeping their order keys."""
        ...

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if empty."""
        ...

    def __len__(self) -> int:
        ...

    def __bool__(self) -> bool:
        ...

    def clear(self) -> None:
        ...


class EventQueue:
    """The reference backend: a deterministic binary heap of events."""

    __slots__ = ("_heap", "_sequence", "_drain_time", "batch_dirty")

    def __init__(self) -> None:
        self._sequence = 0
        self._heap: list[Event] = []
        self._drain_time = -1
        self.batch_dirty = False

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def __bool__(self) -> bool:
        return any(not event.cancelled for event in self._heap)

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
        event = Event(time, priority, sequence, callback, arg)
        heapq.heappush(self._heap, event)
        if time <= self._drain_time:
            self.batch_dirty = True
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                return event
        raise IndexError("pop from empty event queue")

    def pop_batch(self, until: int | None = None) -> list[Event]:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if not heap:
            return []
        time = heap[0].time
        if until is not None and time > until:
            return []
        batch: list[Event] = []
        while heap and heap[0].time == time:
            event = heapq.heappop(heap)
            if not event.cancelled:
                batch.append(event)
        self._drain_time = time
        self.batch_dirty = False
        return batch

    def requeue(self, events: Iterable[Event]) -> None:
        heap = self._heap
        for event in events:
            if not event.cancelled:
                heapq.heappush(heap, event)

    def peek_time(self) -> int | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0].time

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._drain_time = -1
        self.batch_dirty = False


class _Bucket:
    """All events of one timestamp, consumed front to back."""

    __slots__ = ("events", "head", "ordered")

    def __init__(self, event: Event) -> None:
        self.events: list[Event | None] = [event]
        self.head = 0
        #: Whether ``events[head:]`` is sorted by ``(priority, sequence)``.
        self.ordered = True


def _bucket_key(event: Event) -> tuple[int, int]:
    return (event.priority, event.sequence)


class CalendarQueue:
    """Bucketed (calendar-style) scheduler, the default backend.

    Events are grouped by exact timestamp; only the distinct pending
    timestamps live in a heap of plain integers.  A timestamp holding a
    single event — by far the common case in network workloads — is
    stored as the bare :class:`Event` and only promoted to a
    :class:`_Bucket` when a second event lands on the same instant.
    Within a bucket events are appended in sequence order and lazily
    re-sorted by ``(priority, sequence)`` only when a push actually
    violates that order — which in practice means only when mixed
    priorities land on one instant.
    """

    __slots__ = (
        "_buckets", "_times", "_sequence", "_drain_time", "batch_dirty",
    )

    def __init__(self) -> None:
        self._sequence = 0
        #: time -> single Event, or a _Bucket once an instant has >1.
        self._buckets: dict[int, Event | _Bucket] = {}
        self._times: list[int] = []
        self._drain_time = -1
        self.batch_dirty = False

    def __len__(self) -> int:
        count = 0
        for entry in self._buckets.values():
            if entry.__class__ is _Bucket:
                count += sum(
                    1
                    for event in entry.events[entry.head :]
                    if event is not None and not event.cancelled
                )
            elif not entry.cancelled:
                count += 1
        return count

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
        event = Event(time, priority, sequence, callback, arg)
        buckets = self._buckets
        entry = buckets.get(time)
        if entry is None:
            buckets[time] = event
            heapq.heappush(self._times, time)
        elif entry.__class__ is _Bucket:
            events = entry.events
            last = events[-1]
            # A fresh event always carries the largest sequence number, so
            # append order only breaks when its priority is more urgent.
            if last is not None and priority < last.priority:
                entry.ordered = False
            events.append(event)
        else:
            # Promote the singleton entry to a real bucket.
            bucket = _Bucket(entry)
            if priority < entry.priority:
                bucket.ordered = False
            bucket.events.append(event)
            buckets[time] = bucket
        if time <= self._drain_time:
            self.batch_dirty = True
        return event

    def _insert_existing(self, event: Event) -> None:
        """Reinsert an event that keeps its original ``sequence``."""
        time = event.time
        buckets = self._buckets
        entry = buckets.get(time)
        if entry is None:
            buckets[time] = event
            heapq.heappush(self._times, time)
        elif entry.__class__ is _Bucket:
            events = entry.events
            last = events[-1]
            if last is not None and _bucket_key(event) < _bucket_key(last):
                entry.ordered = False
            events.append(event)
        else:
            bucket = _Bucket(entry)
            if _bucket_key(event) < _bucket_key(entry):
                bucket.ordered = False
            bucket.events.append(event)
            buckets[time] = bucket

    def _live_head(self) -> tuple[int, Event | _Bucket] | None:
        """Earliest entry with a live event, or ``None``.

        Drops exhausted buckets and skips cancelled events on the way.
        Returns the raw dict entry: a bare :class:`Event` for singleton
        instants, a positioned :class:`_Bucket` otherwise.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            entry = buckets[time]
            if entry.__class__ is not _Bucket:
                if not entry.cancelled:
                    return time, entry
                heapq.heappop(times)
                del buckets[time]
                continue
            bucket = entry
            events = bucket.events
            if not bucket.ordered:
                tail = events[bucket.head :]
                tail.sort(key=_bucket_key)
                events[bucket.head :] = tail
                bucket.ordered = True
            head = bucket.head
            size = len(events)
            while head < size:
                event = events[head]
                if event is not None and not event.cancelled:
                    bucket.head = head
                    return time, bucket
                events[head] = None
                head += 1
            bucket.head = head
            heapq.heappop(times)
            del buckets[time]
        return None

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        found = self._live_head()
        if found is None:
            raise IndexError("pop from empty event queue")
        time, entry = found
        if entry.__class__ is not _Bucket:
            heapq.heappop(self._times)
            del self._buckets[time]
            return entry
        head = entry.head
        event = entry.events[head]
        entry.events[head] = None
        entry.head = head + 1
        return event

    def pop_batch(self, until: int | None = None) -> list[Event]:
        times = self._times
        if not times:
            return []
        buckets = self._buckets
        time = times[0]
        entry = buckets[time]
        if entry.__class__ is not _Bucket and not entry.cancelled:
            # Fast path: a live singleton at the head, no scan needed.
            if until is not None and time > until:
                return []
            heapq.heappop(times)
            del buckets[time]
            self._drain_time = time
            self.batch_dirty = False
            return [entry]
        found = self._live_head()
        if found is None:
            return []
        time, entry = found
        if until is not None and time > until:
            return []
        # The whole instant is consumed: retire it so same-instant pushes
        # made by batch callbacks start a fresh entry (and set
        # ``batch_dirty`` via the ``_drain_time`` check in push).
        heapq.heappop(self._times)
        del self._buckets[time]
        self._drain_time = time
        self.batch_dirty = False
        if entry.__class__ is not _Bucket:
            return [entry]
        return [
            event
            for event in entry.events[entry.head :]
            if event is not None and not event.cancelled
        ]

    def requeue(self, events: Iterable[Event]) -> None:
        for event in events:
            if not event.cancelled:
                self._insert_existing(event)

    def peek_time(self) -> int | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        found = self._live_head()
        if found is None:
            return None
        return found[0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._buckets.clear()
        self._times.clear()
        self._drain_time = -1
        self.batch_dirty = False


#: Name -> backend class.  ``Simulator(scheduler=...)`` resolves through
#: this registry, so downstream code can register additional backends.
SCHEDULERS: dict[str, Callable[[], "Scheduler"]] = {
    "heap": EventQueue,
    "calendar": CalendarQueue,
}

#: The backend used when ``Simulator`` is constructed without an explicit
#: ``scheduler`` argument.
DEFAULT_SCHEDULER = "calendar"


def make_scheduler(name: str) -> "Scheduler":
    """Instantiate a scheduler backend by registry name."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(
            f"unknown scheduler backend {name!r} (known: {known})"
        ) from None
    return factory()
