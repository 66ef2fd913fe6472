"""Event-loop statistics and the collect() aggregation context."""

import gc
import weakref

from repro.simcore import MS, Simulator, collect_stats
from repro.simcore.stats import SimStats


class TestSimulatorStats:
    def test_counters_start_at_zero(self):
        sim = Simulator()
        assert sim.stats.events_scheduled == 0
        assert sim.stats.events_executed == 0
        assert sim.stats.processes_started == 0
        assert sim.stats.simulators == 1

    def test_schedule_and_run_counts(self):
        sim = Simulator()
        hits = []
        for delay in (1, 2, 3):
            sim.schedule(lambda: hits.append(sim.now), after=delay)
        sim.run()
        assert sim.stats.events_scheduled == 3
        assert sim.stats.events_executed == 3
        assert sim.stats.sim_time_ns == 3
        assert hits == [1, 2, 3]

    def test_cancelled_events_not_executed(self):
        sim = Simulator()
        event = sim.schedule(lambda: None, after=5)
        event.cancel()
        sim.schedule(lambda: None, after=1)
        sim.run()
        assert sim.stats.events_scheduled == 2
        assert sim.stats.events_executed == 1

    def test_process_counter_and_periodic_events(self):
        sim = Simulator()
        ticks = []

        def tick():
            while True:
                ticks.append(sim.now)
                yield MS

        sim.process(tick())
        sim.run(until=5 * MS)
        assert sim.stats.processes_started == 1
        assert len(ticks) == 6  # t = 0..5 ms inclusive
        assert sim.stats.events_executed == len(ticks)
        # The t=6ms wakeup is scheduled but lies beyond the horizon.
        assert sim.stats.events_scheduled == len(ticks) + 1

    def test_step_counts_events(self):
        sim = Simulator()
        sim.schedule(lambda: None, after=7)
        assert sim.step() is True
        assert sim.stats.events_executed == 1
        assert sim.stats.sim_time_ns == 7
        assert sim.step() is False


class TestCollect:
    def test_aggregates_across_simulators(self):
        with collect_stats() as stats:
            for _ in range(3):
                sim = Simulator()
                sim.schedule(lambda: None, after=1)
                sim.run()
        assert stats.simulators == 3
        assert stats.events_executed == 3
        assert stats.sim_time_ns == 1

    def test_excludes_outside_simulators(self):
        outside = Simulator()
        outside.schedule(lambda: None, after=1)
        with collect_stats() as stats:
            inside = Simulator()
            inside.schedule(lambda: None, after=1)
            inside.run()
        outside.run()
        assert stats.simulators == 1
        assert stats.events_executed == 1

    def test_nested_collection(self):
        with collect_stats() as outer:
            first = Simulator()
            first.schedule(lambda: None, after=1)
            first.run()
            with collect_stats() as inner:
                second = Simulator()
                second.schedule(lambda: None, after=1)
                second.schedule(lambda: None, after=2)
                second.run()
        assert inner.simulators == 1
        assert inner.events_executed == 2
        assert outer.simulators == 2
        assert outer.events_executed == 3

    def test_block_keeps_stats_not_simulators(self):
        # A finished simulator is freed inside the block (its pending
        # events and the model they reference with it), and its counts
        # still reach the total.
        with collect_stats() as stats:
            sim = Simulator()
            sim.schedule(lambda: None, after=1)
            sim.schedule(lambda: None, after=5)
            sim.run(until=2)
            ref = weakref.ref(sim)
            del sim
            gc.collect()
            assert ref() is None
        assert stats.simulators == 1
        assert stats.events_scheduled == 2
        assert stats.events_executed == 1
        assert stats.sim_time_ns == 2

    def test_merge_and_as_dict(self):
        a = SimStats(simulators=1, events_executed=2, sim_time_ns=10)
        b = SimStats(simulators=1, events_executed=3, sim_time_ns=7)
        a.merge(b)
        assert a.simulators == 2
        assert a.events_executed == 5
        assert a.sim_time_ns == 10
        assert a.as_dict()["events_executed"] == 5
