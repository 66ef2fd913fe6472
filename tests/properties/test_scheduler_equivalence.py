"""Scheduler-backend equivalence properties.

The calendar queue is the default backend purely as an optimization: it
must be *observationally identical* to the reference binary heap.  These
properties drive both backends with the same randomized workloads and
assert the pop streams match element-for-element on the documented total
order ``(time, priority, sequence)`` — including under cancellation,
interleaved pops, and batch draining.  The workloads mix zero-argument
events with one-argument ``fn(arg)`` events.
"""

import random

import pytest

from repro.simcore import MS, US, Simulator
from repro.simcore.events import (
    NO_ARG,
    CalendarQueue,
    EventQueue,
    make_scheduler,
)

TRIALS = 20


def trial_seeds(start):
    return [start + trial for trial in range(TRIALS)]


def random_workload(rng, size=200):
    """Replayable push/pop/cancel script exercising dense time collisions."""
    ops = []
    live = 0
    for tag in range(size):
        choice = rng.random()
        if choice < 0.55 or live == 0:
            # Small time range on purpose: many same-timestamp buckets.
            ops.append(
                ("push", rng.randrange(40), rng.choice((-10, -10, 0, 0, 0, 10)), tag)
            )
            live += 1
        elif choice < 0.75:
            pushes = [op for op in ops if op[0] == "push"]
            ops.append(("cancel", rng.choice(pushes)[3]))
        else:
            ops.append(("pop",))
            live = max(0, live - 1)
    return ops


def push(queue, time, priority, tag):
    """Odd tags schedule ``fn(arg)``, even tags a zero-argument closure."""
    if tag % 2:
        return queue.push(time, callback=abs, priority=priority, arg=tag)
    return queue.push(time, callback=lambda t=tag: t, priority=priority)


def fire(event):
    if event.arg is NO_ARG:
        return event.callback()
    return event.callback(event.arg)


def drive(backend, ops):
    """Apply a workload; return the popped (time, priority, sequence, tag)s."""
    queue = backend()
    events = {}
    popped = []
    for op in ops:
        if op[0] == "push":
            _, time, priority, tag = op
            events[tag] = push(queue, time, priority, tag)
        elif op[0] == "cancel":
            events[op[1]].cancel()
        else:
            try:
                event = queue.pop()
            except IndexError:
                popped.append(None)
            else:
                popped.append(
                    (event.time, event.priority, event.sequence, fire(event))
                )
    while queue:
        event = queue.pop()
        popped.append(
            (event.time, event.priority, event.sequence, fire(event))
        )
    return popped


def drive_batched(backend, ops):
    """Same workload, drained through ``pop_batch`` instead of ``pop``."""
    queue = backend()
    events = {}
    for op in ops:
        if op[0] == "push":
            _, time, priority, tag = op
            events[tag] = push(queue, time, priority, tag)
        elif op[0] == "cancel":
            events[op[1]].cancel()
        else:
            batch = queue.pop_batch()
            # Put all but the first back so single pops stay comparable.
            if len(batch) > 1:
                queue.requeue(batch[1:])
    popped = []
    while queue:
        for event in queue.pop_batch():
            popped.append(
                (event.time, event.priority, event.sequence, fire(event))
            )
    return popped


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", trial_seeds(9000))
    def test_identical_pop_order_under_random_workloads(self, seed):
        ops = random_workload(random.Random(seed))
        assert drive(EventQueue, ops) == drive(CalendarQueue, ops), (
            f"trial seed {seed}"
        )

    @pytest.mark.parametrize("seed", trial_seeds(9500))
    def test_batch_draining_matches_across_backends(self, seed):
        ops = random_workload(random.Random(seed))
        assert drive_batched(EventQueue, ops) == drive_batched(
            CalendarQueue, ops
        ), f"trial seed {seed}"

    @pytest.mark.parametrize("seed", trial_seeds(9900)[:8])
    def test_full_simulator_runs_identically_on_both_backends(self, seed):
        until = 5 * MS

        def run(backend_name):
            rng = random.Random(seed)
            sim = Simulator(scheduler=backend_name)
            fired = []
            fired_ids = set()
            # Every handle sim.schedule returned, indexed by event id.
            handles = []
            cancelled_pending = set()

            def schedule(fn, child, **when):
                ident = len(handles)
                handles.append(sim.schedule(fn, (ident,) + child, **when))

            def tick(ident, depth):
                assert ident not in fired_ids, f"event {ident} fired twice"
                fired.append((sim.now, ident))
                fired_ids.add(ident)
                if depth > 0:
                    # Same-instant and future reschedules, mixed priorities,
                    # alternating closures and one-argument events.
                    after = rng.choice((0, 3 * US, 7 * US))
                    priority = rng.choice((-10, 0, 10))
                    if depth % 2:
                        schedule(
                            tick_arg, (depth - 1,), after=after,
                            priority=priority,
                        )
                    else:
                        child = len(handles)
                        handles.append(
                            sim.schedule(
                                lambda: tick(child, depth - 1),
                                after=after,
                                priority=priority,
                            )
                        )
                if rng.random() < 0.3:
                    # After the reschedule, so a reused event object would
                    # already be pending again: cancel a retained handle
                    # that may have fired (this one included) or may not.
                    victim = rng.randrange(len(handles))
                    if victim not in fired_ids:
                        cancelled_pending.add(victim)
                    handles[victim].cancel()

            def tick_arg(args):
                tick(*args)

            for _ in range(12):
                schedule(
                    tick_arg,
                    (4,),
                    at=rng.randrange(0, 2 * MS),
                    priority=rng.choice((-10, 0, 10)),
                )
            sim.run(until=until)
            # Oracle: an event fires iff its handle was not cancelled
            # before it fired, so cancelling a fired handle never
            # suppresses another event.
            due = {
                ident
                for ident, event in enumerate(handles)
                if event.time <= until
            }
            assert fired_ids == due - cancelled_pending, f"trial seed {seed}"
            return fired, sim.stats.events_executed

        heap_run = run("heap")
        calendar_run = run("calendar")
        assert heap_run == calendar_run, f"trial seed {seed}"


class TestTelemetryEquivalence:
    """Backend equivalence extends to the in-band telemetry plane.

    The telemetry rings record ``(sim.now, value)`` pairs from event
    callbacks, so any backend-dependent reordering — especially inside
    the calendar queue's same-timestamp buckets — would surface as a
    ring-content diff.  These workloads pile events onto identical
    timestamps straddling bucket promotions (single Event -> _Bucket)
    and assert the rings match bit for bit.
    """

    def _drive(self, backend_name, seed):
        from repro.obs.telemetry import RingSampler

        rng = random.Random(seed)
        sim = Simulator(scheduler=backend_name)
        ring = RingSampler("equiv", capacity=64)
        order = []

        def record(tag):
            order.append(tag)
            ring.record(sim.now, tag)

        # Dense collisions: 40 events over only 5 distinct timestamps,
        # mixed priorities, plus same-instant reschedules (an event at
        # time T scheduling another event at time T crosses the bucket's
        # consumed/pending boundary mid-drain).
        instants = [0, 1, 1, 2, 5]
        for tag in range(40):
            at = rng.choice(instants)
            priority = rng.choice((-10, 0, 10))
            if tag % 7 == 0:
                sim.schedule(
                    lambda t=tag: (
                        record(t),
                        sim.schedule(lambda t2=t: record(t2 + 1000), after=0),
                    ),
                    at=at, priority=priority,
                )
            else:
                sim.schedule(lambda t=tag: record(t), at=at, priority=priority)
        sim.run()
        return order, ring.snapshot()

    @pytest.mark.parametrize("seed", trial_seeds(7700)[:8])
    def test_ring_contents_identical_across_backends(self, seed):
        heap_order, heap_ring = self._drive("heap", seed)
        cal_order, cal_ring = self._drive("calendar", seed)
        assert heap_order == cal_order, f"trial seed {seed}"
        assert heap_ring == cal_ring, f"trial seed {seed}"

    def test_identical_timestamp_flood_decimates_identically(self):
        # Everything at t=0: the pathological single-bucket case.
        from repro.obs.telemetry import RingSampler

        def run(backend_name):
            sim = Simulator(scheduler=backend_name)
            ring = RingSampler("flood", capacity=8)
            for tag in range(100):
                sim.schedule(lambda t=tag: ring.record(sim.now, t), at=0)
            sim.run()
            return ring.snapshot()

        assert run("heap") == run("calendar")


class TestSchedulerFactory:
    def test_make_scheduler_knows_both_backends(self):
        assert isinstance(make_scheduler("heap"), EventQueue)
        assert isinstance(make_scheduler("calendar"), CalendarQueue)
        assert Simulator().scheduler_name == "calendar"

    def test_make_scheduler_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="heap"):
            make_scheduler("splay-tree")
