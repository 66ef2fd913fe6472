"""The kernel oracle: a plain event loop over ``EventQueue``.

:class:`ReferenceSimulator` is a :class:`Simulator` whose ``schedule``,
``run``, ``step`` and ``pending_events`` go through the independent
:class:`~repro.simcore.events.EventQueue` and an obvious peek-pop-fire
loop instead of the simulator's own heap.  Processes, signals and every
model run on it unchanged, so a test can build the same workload on both
and compare the runs event for event.
"""

from repro.simcore import PRIORITY_NORMAL, Simulator
from repro.simcore.events import NO_ARG, EventQueue


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
