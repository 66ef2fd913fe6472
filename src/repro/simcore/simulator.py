"""The discrete-event simulator.

:class:`Simulator` owns the clock (integer nanoseconds, see
:mod:`repro.simcore.units`), a pluggable event-scheduler backend (see
:mod:`repro.simcore.events`), and a registry of named random streams.
Components interact with it in two styles:

1. **Callbacks** — ``sim.schedule(fn, after=delay)`` /
   ``sim.schedule(fn, at=t)``, or ``sim.schedule(fn, arg, ...)`` to call
   ``fn(arg)`` without allocating a closure.
2. **Processes** — generator coroutines driven by :class:`Process`, which
   ``yield`` delays (``int`` nanoseconds) or :class:`Signal` objects.

Both styles coexist; the fieldbus and PLC models use processes for their
cyclic behaviour, while packet forwarding uses plain callbacks.

The event loop has two paths.  With no profiler attached and no tracer
active, :meth:`Simulator.run` takes a zero-overhead fast path: events of
one instant are drained in a single batched scheduler call, fired events
are recycled into the scheduler's free pool, and no observability code
runs at all.  With a profiler or tracer active it falls back to the
instrumented per-event loop.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable, Generator, Iterable

from ..obs import runtime as _obs
from ..obs.tracing import NULL_TRACER
from .events import (
    CalendarQueue,
    DEFAULT_SCHEDULER,
    Event,
    NO_ARG,
    PRIORITY_NORMAL,
    Scheduler,
    _Bucket,
    _INLINE_REFS,
    _POOL_LIMIT,
    _getrefcount,
    make_scheduler,
)
from .rng import RandomStreams
from .stats import SimStats, _register


def obs_trace_sink(time_ns: int, message: str) -> None:
    """Forward a trace message to the active observability tracer.

    This is the default :attr:`Simulator.default_sink`: with an
    :func:`repro.obs.capture` scope open, messages become instant events on
    the trace timeline; with observability off the active tracer is the
    null tracer and the call is a no-op (the documented ``NullSink``
    behaviour).
    """
    _obs.get_tracer().instant("sim.trace", message=message, sim_time_ns=time_ns)


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class Signal:
    """A broadcast condition that processes can wait on.

    ``wait()`` inside a process suspends it until someone calls
    :meth:`fire`.  The value passed to ``fire`` is delivered as the result of
    the ``yield``.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._waiters: list[Process] = []

    def fire(self, value: Any = None) -> None:
        """Wake every waiting process at the current instant."""
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._sim.schedule(process._resume, value)

    def _register(self, process: "Process") -> None:
        self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """A generator coroutine scheduled on the simulator.

    The generator may yield:

    - ``int`` — sleep that many nanoseconds;
    - :class:`Signal` — suspend until the signal fires;
    - ``None`` — yield the floor (resume at the same instant, after other
      pending events at this time).
    """

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self._sim = sim
        self._generator = generator
        self.name = name or repr(generator)
        self.alive = True
        self.result: Any = None
        self._pending_event: Event | None = None
        self.finished = Signal(sim, name=f"{self.name}/finished")

    def start(self) -> "Process":
        """Schedule the first step at the current instant."""
        self._pending_event = self._sim.schedule(self._resume, None)
        return self

    def stop(self) -> None:
        """Terminate the process without running it further."""
        if not self.alive:
            return
        self.alive = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self._generator.close()
        self.finished.fire(None)

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._pending_event = None
        try:
            command = self._generator.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self.finished.fire(stop.value)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if command is None:
            self._pending_event = self._sim.schedule(self._resume, None)
        elif isinstance(command, int):
            if command < 0:
                raise SimulationError(
                    f"process {self.name} yielded negative delay {command}"
                )
            self._pending_event = self._sim.schedule(
                self._resume, None, after=command
            )
        elif isinstance(command, Signal):
            command._register(self)
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported value {command!r}"
            )


def _specialize_schedule(sim: "Simulator", queue: CalendarQueue):
    """Build a ``schedule`` closure with ``CalendarQueue.push`` inlined.

    ``Simulator.__init__`` binds the result as an *instance* attribute when
    the default backend is in use, shadowing the generic method and
    removing one call boundary from the hottest path in the repo.  The
    semantics — argument validation, stats accounting, and insertion
    order — are identical to :meth:`Simulator.schedule`
    followed by :meth:`CalendarQueue.push`; the scheduler-equivalence
    property suite drives both forms.
    """
    buckets = queue._buckets
    times = queue._times
    free = queue._free
    heappush = heapq.heappush
    stats = sim.stats

    def schedule(
        callback: Callable[..., Any],
        arg: Any = NO_ARG,
        /,
        *,
        after: int | None = None,
        at: int | None = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        if not callable(callback):
            raise _not_callable(callback)
        now = sim._now
        if after is not None:
            if at is not None:
                raise TypeError(
                    "schedule() takes either 'after' or 'at', not both"
                )
            if after < 0:
                raise SimulationError(f"negative delay {after}")
            time = now + after
        elif at is None:
            time = now
        else:
            if at < now:
                raise SimulationError(
                    f"cannot schedule at {at}, current time is {now}"
                )
            time = at
        stats.events_scheduled += 1
        # -- inlined CalendarQueue.push (time >= now >= 0 by the checks
        # above, so the push-side validation is already satisfied) ------
        sequence = queue._sequence
        queue._sequence = sequence + 1
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.sequence = sequence
            event.callback = callback
            event.arg = arg
            event.cancelled = False
        else:
            event = Event(time, priority, sequence, callback, arg)
        entry = buckets.get(time)
        if entry is None:
            buckets[time] = event
            heappush(times, time)
        elif entry.__class__ is _Bucket:
            events = entry.events
            last = events[-1]
            if last is not None and priority < last.priority:
                entry.ordered = False
            events.append(event)
        else:
            bucket = _Bucket(entry)
            if priority < entry.priority:
                bucket.ordered = False
            bucket.events.append(event)
            buckets[time] = bucket
        if time <= queue._drain_time:
            queue.batch_dirty = True
        return event

    schedule.__doc__ = Simulator.schedule.__doc__
    return schedule


def _not_callable(callback: Any) -> TypeError:
    return TypeError(
        f"schedule() needs a callable first argument, got {callback!r}; "
        f"give the delay as schedule(fn, after=delay)"
    )


class Simulator:
    """Deterministic discrete-event simulator with integer-ns time."""

    #: Where :meth:`trace` messages go when *no* trace hook is registered.
    #: Defaults to :func:`obs_trace_sink` (the active observability tracer,
    #: a no-op null sink when observability is off).  Assign a
    #: ``(time_ns, message)`` callable — on an instance or on the class —
    #: to redirect unhooked trace output, e.g. ``sim.default_sink = print``
    #: style debugging sinks.
    default_sink: Callable[[int, str], None] = staticmethod(obs_trace_sink)

    def __init__(
        self, seed: int = 0, *, scheduler: str | Scheduler | None = None
    ) -> None:
        self._now = 0
        if scheduler is None:
            scheduler = os.environ.get("REPRO_SIM_SCHEDULER", DEFAULT_SCHEDULER)
        if isinstance(scheduler, str):
            self.scheduler_name = scheduler
            self._queue: Scheduler = make_scheduler(scheduler)
        else:
            self.scheduler_name = type(scheduler).__name__
            self._queue = scheduler
        # Bound-method cache: schedule() is the hottest call in the repo
        # and the `self._queue.push` attribute chase shows up in profiles.
        self._push = self._queue.push
        self.streams = RandomStreams(seed=seed)
        self._running = False
        self._trace_hooks: list[Callable[[int, str], None]] = []
        #: Event-loop counters; aggregated across simulators by
        #: :func:`repro.simcore.stats.collect`.
        self.stats = SimStats(simulators=1)
        if self._queue.__class__ is CalendarQueue:
            # Shadow the generic method with a push-inlined closure.
            self.schedule = _specialize_schedule(self, self._queue)
        #: Per-callback wall-time attribution; ``None`` (the default)
        #: keeps the event loop on the unwrapped fast path.  Set by
        #: :meth:`repro.obs.Profiler.attach` or inherited from an open
        #: ``obs.capture(profile=True)`` scope at construction.
        self._profiler = _obs.profiler_for_new_sim()
        _register(self)

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        callback: Callable[..., Any],
        arg: Any = NO_ARG,
        /,
        *,
        after: int | None = None,
        at: int | None = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback()`` or ``callback(arg)``; return its event.

        Exactly one of the keyword-only ``after`` (relative delay in ns)
        and ``at`` (absolute time in ns) selects the firing instant;
        giving neither fires at the current instant (``after=0``).
        ``priority`` breaks ties at equal times (lower fires first)::

            sim.schedule(fn)                     # now
            sim.schedule(fn, after=5 * MS)       # relative
            sim.schedule(fn, at=deadline_ns)     # absolute
            sim.schedule(fn, after=0, priority=PRIORITY_HIGH)
            sim.schedule(port.deliver, packet, after=500)  # fn(arg)

        The optional positional ``arg`` lets hot paths schedule a bound
        method and its one argument without allocating a closure.  A
        first argument that is not callable raises :class:`TypeError`.
        """
        if not callable(callback):
            raise _not_callable(callback)
        if after is not None:
            if at is not None:
                raise TypeError(
                    "schedule() takes either 'after' or 'at', not both"
                )
            if after < 0:
                raise SimulationError(f"negative delay {after}")
            time = self._now + after
        elif at is not None:
            if at < self._now:
                raise SimulationError(
                    f"cannot schedule at {at}, current time is {self._now}"
                )
            time = at
        else:
            time = self._now
        self.stats.events_scheduled += 1
        return self._push(time, callback, priority, arg)

    def process(
        self, generator: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        """Wrap ``generator`` as a :class:`Process` and start it."""
        self.stats.processes_started += 1
        return Process(self, generator, name=name).start()

    def signal(self, name: str = "") -> Signal:
        """Create a :class:`Signal` bound to this simulator."""
        return Signal(self, name=name)

    # -- execution ----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  With ``until`` given, time
        advances exactly to ``until`` even if the queue drains earlier, so
        repeated ``run`` calls compose predictably.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}, current time is {self._now}"
            )
        self._running = True
        # Snapshot per-run observability state (attaching mid-run takes
        # effect on the next `run` call).  With no profiler and the null
        # tracer the loop below is the zero-overhead fast path.
        profiler = self._profiler
        tracer = _obs.get_tracer()
        executed = 0
        try:
            if profiler is None and tracer is NULL_TRACER:
                executed = self._run_fast(until)
                if until is not None and until > self._now:
                    self._now = until
            else:
                executed = self._run_instrumented(until, profiler, tracer)
        finally:
            self._running = False
            self.stats.events_executed += executed
            self.stats.sim_time_ns = self._now
        return self._now

    def _run_fast(self, until: int | None) -> int:
        """Uninstrumented event loop: batched firing, event recycling."""
        queue = self._queue
        if queue.__class__ is CalendarQueue and _getrefcount is not None:
            return self._run_fast_calendar(queue, until)
        pop_batch = queue.pop_batch
        requeue = queue.requeue
        reclaim = queue.reclaim
        # Inline the free-pool reclaim for our own pooled backends; a
        # foreign Scheduler (no ``_free``) falls back to its reclaim().
        grc = _getrefcount
        free = getattr(queue, "_free", None) if grc is not None else None
        no_arg = NO_ARG
        executed = 0
        while True:
            batch = pop_batch(until)
            if not batch:
                break
            self._now = batch[0].time
            size = len(batch)
            if size == 1:
                # Dominant case: one event at this instant.  Drop the
                # batch list before reclaiming so the pool's refcount
                # guard sees only this frame's reference.
                event = batch[0]
                batch = None
                if not event.cancelled:
                    arg = event.arg
                    if arg is no_arg:
                        event.callback()
                    else:
                        event.callback(arg)
                    executed += 1
                if free is None:
                    reclaim(event)
                elif grc(event) == _INLINE_REFS:
                    event.callback = event.arg = None
                    if len(free) < _POOL_LIMIT:
                        free.append(event)
                continue
            index = 0
            while index < size:
                event = batch[index]
                batch[index] = None  # drop the list's ref so reclaim works
                index += 1
                if event.cancelled:
                    # Cancelled mid-batch by an earlier callback.
                    reclaim(event)
                    continue
                arg = event.arg
                if arg is no_arg:
                    event.callback()
                else:
                    event.callback(arg)
                executed += 1
                reclaim(event)
                if queue.batch_dirty and index < size:
                    # A callback scheduled at (or before) this instant; the
                    # new event may order before the unexecuted remainder,
                    # so push the rest back and re-pop the merged batch.
                    requeue(batch[index:])
                    break
        return executed

    def _run_fast_calendar(
        self, queue: CalendarQueue, until: int | None
    ) -> int:
        """:meth:`_run_fast` specialised for the default backend.

        The dominant shape — a live singleton event at the head instant —
        is popped and recycled entirely inside this frame, skipping the
        ``pop_batch``/``reclaim`` calls and the one-element batch list.
        Multi-event instants and cancelled heads fall back to the generic
        batched drain, so the firing order is identical to
        :meth:`_run_fast` on any backend.
        """
        times = queue._times
        buckets = queue._buckets
        free = queue._free
        pop_batch = queue.pop_batch
        requeue = queue.requeue
        reclaim = queue.reclaim
        heappop = heapq.heappop
        grc = _getrefcount
        no_arg = NO_ARG
        executed = 0
        while times:
            time = times[0]
            entry = buckets[time]
            if entry.__class__ is _Bucket or entry.cancelled:
                # Rare shapes: multi-event instant or a cancelled head.
                # Drop our handle on the bucket first — it pins every
                # batch event and would defeat the reclaim refcount guard.
                entry = None
                batch = pop_batch(until)
                if not batch:
                    break
                self._now = batch[0].time
                size = len(batch)
                index = 0
                while index < size:
                    event = batch[index]
                    batch[index] = None
                    index += 1
                    if event.cancelled:
                        reclaim(event)
                        continue
                    arg = event.arg
                    if arg is no_arg:
                        event.callback()
                    else:
                        event.callback(arg)
                    executed += 1
                    reclaim(event)
                    if queue.batch_dirty and index < size:
                        requeue(batch[index:])
                        break
                continue
            if until is not None and time > until:
                break
            heappop(times)
            del buckets[time]
            queue._drain_time = time
            queue.batch_dirty = False
            self._now = time
            arg = entry.arg
            if arg is no_arg:
                entry.callback()
            else:
                entry.callback(arg)
            executed += 1
            # Inlined reclaim (see events._INLINE_REFS): pool the event
            # unless outside code still holds a reference to it.
            if grc(entry) == _INLINE_REFS:
                entry.callback = entry.arg = None
                if len(free) < _POOL_LIMIT:
                    free.append(entry)
        return executed

    def _run_instrumented(
        self, until: int | None, profiler, tracer
    ) -> int:
        """Per-event loop with tracer span and profiler attribution."""
        queue = self._queue
        executed = 0
        span = tracer.span("sim.run", start_ns=self._now, until_ns=until)
        with span:
            while True:
                next_time = queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = queue.pop()
                self._now = event.time
                executed += 1
                _fire(event, profiler)
            if until is not None and until > self._now:
                self._now = until
            span.set(
                end_ns=self._now,
                events=self.stats.events_executed + executed,
            )
        return executed

    def step(self) -> bool:
        """Execute a single event.  Returns ``False`` if the queue is empty."""
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        self._now = event.time
        self.stats.events_executed += 1
        self.stats.sim_time_ns = self._now
        _fire(event, self._profiler)
        return True

    @property
    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    # -- tracing ------------------------------------------------------------

    def add_trace_hook(self, hook: Callable[[int, str], None]) -> None:
        """Register a ``hook(time_ns, message)`` called by :meth:`trace`.

        Hooks are invoked in registration order.  While at least one hook
        is registered, hooks replace :attr:`default_sink`.
        """
        self._trace_hooks.append(hook)

    def trace(self, message: str) -> None:
        """Emit a trace message.

        With hooks registered, every hook receives ``(now, message)`` in
        registration order.  With none, the message goes to
        :attr:`default_sink` instead of being silently dropped — by default
        that routes it into the observability layer (an instant event on
        the active tracer; a no-op when observability is off).
        """
        hooks = self._trace_hooks
        if hooks:
            for hook in hooks:
                hook(self._now, message)
        else:
            self.default_sink(self._now, message)


def _fire(event: Event, profiler) -> None:
    """Run one popped event, through ``profiler`` when one is attached."""
    callback = event.callback
    args = () if event.arg is NO_ARG else (event.arg,)
    if profiler is None:
        callback(*args)
    else:
        profiler.run_event(callback, *args)


def every(
    sim: Simulator,
    period: int,
    action: Callable[[], Any],
    start: int = 0,
    jitter_fn: Callable[[], int] | None = None,
) -> Process:
    """Start a process that invokes ``action`` every ``period`` ns.

    ``jitter_fn``, when given, returns an extra (non-negative) delay added to
    each activation — used to model release jitter of periodic tasks.
    """

    def _loop() -> Iterable[Any]:
        if start:
            yield start
        while True:
            if jitter_fn is not None:
                extra = jitter_fn()
                if extra:
                    yield extra
                action()
                remaining = period - extra
                yield max(0, remaining)
            else:
                action()
                yield period

    return sim.process(_loop(), name=f"every({period})")
