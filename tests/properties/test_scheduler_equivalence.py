"""The simulator's heap against an independent reference loop.

``Simulator`` keeps one binary heap of event entries and pops it in its
own fast loop.  These properties drive it and
:class:`~tests.simcore.reference_loop.ReferenceSimulator` — a plain loop
over the reference ``EventQueue`` — with the same randomized workloads,
and assert the two fire the same events at the same instants in the same
order.  The workloads schedule from inside callbacks at the current
instant with priorities -10, 0 and 10, keep and cancel handles (also
after the event fired), stop at ``run(until)`` boundaries and interleave
``step()`` calls.  They mix zero-argument events with one-argument
``fn(arg)`` events.
"""

import random

import pytest

from repro.simcore import MS, US, Simulator
from tests.simcore.reference_loop import ReferenceSimulator

TRIALS = 20


def trial_seeds(start):
    return [start + trial for trial in range(TRIALS)]


def random_script(rng, size=200):
    """Replayable schedule/cancel/step/run script with dense collisions."""
    ops = []
    scheduled = 0
    for _ in range(size):
        choice = rng.random()
        if choice < 0.5 or scheduled == 0:
            # Small delays on purpose: many events share an instant.
            ops.append(("schedule", rng.randrange(8), rng.choice((-10, 0, 10))))
            scheduled += 1
        elif choice < 0.7:
            # Any earlier handle: pending, cancelled or already fired.
            ops.append(("cancel", rng.randrange(scheduled)))
        elif choice < 0.85:
            ops.append(("step",))
        else:
            ops.append(("run", rng.randrange(6)))
    return ops


def play(engine, ops):
    """Apply a script; return everything observable about the run."""
    sim = engine()
    handles = []
    log = []

    def fire(tag):
        log.append((sim.now, tag))
        if tag % 3 == 0:
            # Reschedule from inside the callback at the current instant.
            child = len(handles) + 10_000
            handles.append(
                sim.schedule(fire, child, priority=(-10, 0, 10)[child % 3])
            )

    for op in ops:
        if op[0] == "schedule":
            _, delay, priority = op
            tag = len(handles)
            if tag % 2:
                event = sim.schedule(fire, tag, after=delay, priority=priority)
            else:
                event = sim.schedule(
                    lambda t=tag: fire(t), after=delay, priority=priority
                )
            handles.append(event)
        elif op[0] == "cancel":
            handles[op[1]].cancel()
        elif op[0] == "step":
            log.append(("step", sim.step(), sim.now))
        else:
            log.append(("run", sim.run(until=sim.now + op[1])))
        log.append(("pending", sim.pending_events))
    log.append(("end", sim.run()))
    stats = sim.stats
    return log, stats.events_scheduled, stats.events_executed, stats.sim_time_ns


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", trial_seeds(9000))
    def test_identical_pop_order_under_random_workloads(self, seed):
        ops = random_script(random.Random(seed))
        assert play(Simulator, ops) == play(ReferenceSimulator, ops), (
            f"trial seed {seed}"
        )

    @pytest.mark.parametrize("seed", trial_seeds(9900)[:8])
    def test_full_simulator_runs_identically_on_both_backends(self, seed):
        until = 5 * MS

        def run(engine):
            rng = random.Random(seed)
            sim = engine()
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
                    # Cancel a retained handle that may have fired (this
                    # one included) or may not.
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
            # Stop at a few boundaries on the way, then single-step once.
            for boundary in sorted(rng.sample(range(until), 3)):
                sim.run(until=boundary)
                fired.append(("until", sim.now))
            fired.append(("step", sim.step()))
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
            return fired, sim.now, sim.stats.events_executed

        assert run(Simulator) == run(ReferenceSimulator), f"trial seed {seed}"

    @pytest.mark.parametrize("seed", trial_seeds(9500))
    def test_processes_and_signals_run_identically(self, seed):
        def run(engine):
            rng = random.Random(seed)
            sim = engine()
            log = []
            go = sim.signal("go")

            def worker(ident):
                # Draws happen as the events fire, so any reordering
                # changes every later choice.
                for _ in range(rng.randrange(1, 6)):
                    choice = rng.random()
                    if choice < 0.4:
                        yield rng.randrange(5)
                    elif choice < 0.6:
                        yield None  # resume at this instant, after others
                    elif choice < 0.8:
                        log.append(("woke", (yield go)))
                    else:
                        go.fire(ident)
                    log.append((sim.now, ident))
                return ident

            workers = [sim.process(worker(ident)) for ident in range(8)]
            victim = workers[rng.randrange(len(workers))]
            sim.schedule(victim.stop, after=rng.randrange(1, 10))
            for instant in range(0, 40, 5):
                sim.schedule(go.fire, -instant, at=instant)
            sim.run()
            results = [(worker.alive, worker.result) for worker in workers]
            return log, results, sim.now, sim.stats.events_executed

        assert run(Simulator) == run(ReferenceSimulator), f"trial seed {seed}"


class TestTelemetryEquivalence:
    """The comparison extends to the in-band telemetry plane.

    The telemetry rings record ``(sim.now, value)`` pairs from event
    callbacks, so any reordering of same-instant events would surface as
    a ring-content diff.
    """

    def _drive(self, engine, seed):
        from repro.obs.telemetry import RingSampler

        rng = random.Random(seed)
        sim = engine()
        ring = RingSampler("equiv", capacity=64)
        order = []

        def record(tag):
            order.append(tag)
            ring.record(sim.now, tag)

        # Dense collisions: 40 events over only 5 distinct timestamps,
        # mixed priorities, plus same-instant reschedules.
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
        assert self._drive(Simulator, seed) == self._drive(
            ReferenceSimulator, seed
        ), f"trial seed {seed}"

    def test_identical_timestamp_flood_decimates_identically(self):
        # Everything at t=0.
        from repro.obs.telemetry import RingSampler

        def run(engine):
            sim = engine()
            ring = RingSampler("flood", capacity=8)
            for tag in range(100):
                sim.schedule(lambda t=tag: ring.record(sim.now, t), at=0)
            sim.run()
            return ring.snapshot()

        assert run(Simulator) == run(ReferenceSimulator)


class TestSchedulerArgument:
    def test_none_and_heap_are_one_heap(self):
        for scheduler in (None, "heap"):
            sim = Simulator(scheduler=scheduler)
            fired = []
            sim.schedule(fired.append, 2, after=2)
            sim.schedule(fired.append, 1, after=1)
            sim.run()
            assert fired == [1, 2]

    def test_unknown_names_are_rejected(self):
        for name in ("calendar", "splay-tree"):
            with pytest.raises(ValueError, match="heap"):
                Simulator(scheduler=name)
