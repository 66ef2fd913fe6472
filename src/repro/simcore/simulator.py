"""The discrete-event simulator.

:class:`Simulator` owns the clock (integer nanoseconds, see
:mod:`repro.simcore.units`), one binary heap of pending events (see
:mod:`repro.simcore.events`), and a registry of named random streams.
Components interact with it in two styles:

1. **Callbacks** — ``sim.schedule(fn, after=delay)`` /
   ``sim.schedule(fn, at=t)``, or ``sim.schedule(fn, arg, ...)`` to call
   ``fn(arg)`` without allocating a closure.
2. **Processes** — generator coroutines driven by :class:`Process`, which
   ``yield`` delays (``int`` nanoseconds) or :class:`Signal` objects.

Both styles coexist; the fieldbus and PLC models use processes for their
cyclic behaviour, while packet forwarding uses plain callbacks.

``schedule`` pushes one :class:`~repro.simcore.events.Event` entry onto
the heap, and the event loop pops entries one at a time: the heap order
is the total order ``(time, priority, sequence)``.  :meth:`Simulator.run`
has one loop, where no observability code runs at all; with a tracer
active, ``run`` wraps that same loop in one ``sim.run`` span.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator

from ..obs import runtime as _obs
from ..obs.tracing import NULL_TRACER
from .events import Event, NO_ARG, PRIORITY_NORMAL
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


class Simulator:
    """Deterministic discrete-event simulator with integer-ns time.

    ``scheduler`` may be ``None`` or ``"heap"``; both name the one binary
    heap, and any other value raises :class:`ValueError`.
    """

    #: Where :meth:`trace` messages go.  Defaults to :func:`obs_trace_sink`
    #: (the active observability tracer, a no-op null sink when
    #: observability is off).  Assign a ``(time_ns, message)`` callable —
    #: on an instance or on the class — to redirect trace output, e.g.
    #: ``sim.default_sink = print`` style debugging sinks.
    default_sink: Callable[[int, str], None] = staticmethod(obs_trace_sink)

    def __init__(self, seed: int = 0, *, scheduler: str | None = None) -> None:
        if scheduler not in (None, "heap"):
            raise ValueError(
                f"unknown scheduler {scheduler!r}: the simulator has one "
                f"binary heap, named 'heap'"
            )
        #: Current simulated time in nanoseconds; the event loop assigns it.
        self.now = 0
        #: Pending events, a binary heap of ``Event`` entries.
        self._heap: list[Event] = []
        self.streams = RandomStreams(seed=seed)
        self._running = False
        #: Event-loop counters; aggregated across simulators by
        #: :func:`repro.simcore.stats.collect`.  ``events_scheduled`` is
        #: also the sequence number of the next scheduled event.
        self.stats = SimStats(simulators=1)
        _register(self)

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
            raise TypeError(
                f"schedule() needs a callable first argument, got "
                f"{callback!r}; give the delay as schedule(fn, after=delay)"
            )
        if after is not None:
            if at is not None:
                raise TypeError(
                    "schedule() takes either 'after' or 'at', not both"
                )
            if after < 0:
                raise SimulationError(f"negative delay {after}")
            time = self.now + after
        elif at is not None:
            if at < self.now:
                raise SimulationError(
                    f"cannot schedule at {at}, current time is {self.now}"
                )
            time = at
        else:
            time = self.now
        stats = self.stats
        sequence = stats.events_scheduled
        stats.events_scheduled = sequence + 1
        event = Event((time, priority, sequence, callback, arg))
        heappush(self._heap, event)
        return event

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
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}, current time is {self.now}"
            )
        self._running = True
        # The active tracer is read once per run: a capture scope opened
        # inside a callback takes effect on the next `run` call.
        tracer = _obs.get_tracer()
        try:
            if tracer is NULL_TRACER:
                self._run_fast(until)
            else:
                with tracer.span(
                    "sim.run", start_ns=self.now, until_ns=until
                ) as span:
                    self._run_fast(until)
                    span.set(
                        end_ns=self.now, events=self.stats.events_executed
                    )
        finally:
            self._running = False
            self.stats.sim_time_ns = self.now
        return self.now

    def _run_fast(self, until: int | None) -> None:
        """The event loop: pop, skip if cancelled, count, fire.

        An event counts as executed once its callback is called, as in
        :meth:`step`; the count reaches ``stats`` even when a callback
        raises.  Without an exception, time then advances to ``until``.
        """
        heap = self._heap
        pop = heappop
        no_arg = NO_ARG
        executed = 0
        try:
            while heap:
                event = pop(heap)
                time, _, _, callback, arg = event
                if callback is None:
                    continue
                if until is not None and time > until:
                    heappush(heap, event)
                    break
                self.now = time
                executed += 1
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
        finally:
            self.stats.events_executed += executed
        if until is not None and until > self.now:
            self.now = until

    def step(self) -> bool:
        """Execute a single event.  Returns ``False`` if the queue is empty.

        Raises :class:`SimulationError` when called from inside a callback,
        because the next event would then run inside the current one.  The
        stepped event's own callback counts as running, too, so it may not
        call :meth:`run` or :meth:`step` either.
        """
        if self._running:
            raise SimulationError("cannot step while the simulator is running")
        heap = self._heap
        while heap:
            time, _, _, callback, arg = heappop(heap)
            if callback is not None:
                break
        else:
            return False
        self.now = time
        self.stats.events_executed += 1
        self.stats.sim_time_ns = self.now
        self._running = True
        try:
            if arg is NO_ARG:
                callback()
            else:
                callback(arg)
        finally:
            self._running = False
        return True

    @property
    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return sum(1 for event in self._heap if event[3] is not None)

    # -- tracing ------------------------------------------------------------

    def trace(self, message: str) -> None:
        """Emit a trace message to :attr:`default_sink`.

        By default that routes it into the observability layer (an instant
        event on the active tracer; a no-op when observability is off).
        """
        self.default_sink(self.now, message)
