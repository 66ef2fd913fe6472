"""Simulator execution, processes, and signals."""

import pytest

from repro.simcore import SimulationError, Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0


def test_schedule_and_run_advances_time():
    sim = Simulator()
    fired = []
    sim.schedule(lambda: fired.append(sim.now), after=100)
    sim.run()
    assert fired == [100]
    assert sim.now == 100


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(lambda: fired.append("early"), after=100)
    sim.schedule(lambda: fired.append("late"), after=500)
    sim.run(until=200)
    assert fired == ["early"]
    assert sim.now == 200
    sim.run(until=600)
    assert fired == ["early", "late"]


def test_run_until_advances_time_even_when_queue_drains():
    sim = Simulator()
    sim.run(until=1_000)
    assert sim.now == 1_000


def test_run_until_past_rejected():
    sim = Simulator()
    sim.run(until=100)
    with pytest.raises(SimulationError):
        sim.run(until=50)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(lambda: None, after=-5)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.run(until=100)
    with pytest.raises(SimulationError):
        sim.schedule(lambda: None, at=50)


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(lambda: fired.append(("inner", sim.now)), after=10)

    sim.schedule(outer, after=5)
    sim.run()
    assert fired == [("outer", 5), ("inner", 15)]


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(lambda: fired.append(1), after=1)
    sim.schedule(lambda: fired.append(2), after=2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_step_inside_a_callback_is_rejected():
    # A nested step would run the t=20 event inside the t=10 one, and the
    # rest of the outer callback would see the clock at 20.
    for outer_loop in ("run", "step"):
        sim = Simulator()
        seen = []

        def outer():
            with pytest.raises(SimulationError, match="running"):
                sim.step()
            seen.append(sim.now)

        sim.schedule(outer, at=10)
        sim.schedule(lambda: seen.append(("later", sim.now)), at=20)
        getattr(sim, outer_loop)()
        assert seen[0] == 10
        sim.run()
        assert seen == [10, ("later", 20)]


def _script_raising_at_third(sim, fired):
    """Four events; the third raises."""

    def boom():
        fired.append("boom")
        raise RuntimeError("third event")

    sim.schedule(fired.append, "a", after=1)
    sim.schedule(fired.append, "b", after=2)
    sim.schedule(boom, after=3)
    sim.schedule(fired.append, "d", after=4)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_raising_callback_keeps_the_event_count(traced):
    from contextlib import nullcontext

    from repro.obs import capture

    sim, fired = Simulator(), []
    _script_raising_at_third(sim, fired)
    with capture() if traced else nullcontext():
        with pytest.raises(RuntimeError, match="third event"):
            sim.run()
    assert fired == ["a", "b", "boom"]
    assert sim.stats.events_executed == 3
    assert sim.stats.sim_time_ns == sim.now == 3

    # step() counts an event before firing it: both loops agree.
    stepped, stepped_fired = Simulator(), []
    _script_raising_at_third(stepped, stepped_fired)
    assert stepped.step() and stepped.step()
    with pytest.raises(RuntimeError, match="third event"):
        stepped.step()
    assert stepped_fired == fired
    assert stepped.stats.events_executed == sim.stats.events_executed
    # The loop is usable again after the raise; the fourth event runs.
    sim.run()
    assert fired[-1] == "d" and sim.stats.events_executed == 4


def test_pending_events_counts_live_events():
    sim = Simulator()
    sim.schedule(lambda: None, after=1)
    event = sim.schedule(lambda: None, after=2)
    assert sim.pending_events == 2
    event.cancel()
    assert sim.pending_events == 1


class TestProcesses:
    def test_process_yields_delays(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(sim.now)
            yield 100
            trace.append(sim.now)
            yield 50
            trace.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trace == [0, 100, 150]

    def test_process_result_captured(self):
        sim = Simulator()

        def worker():
            yield 10
            return "done"

        process = sim.process(worker())
        sim.run()
        assert not process.alive
        assert process.result == "done"

    def test_process_stop_halts_execution(self):
        sim = Simulator()
        trace = []

        def worker():
            while True:
                trace.append(sim.now)
                yield 10

        process = sim.process(worker())
        sim.run(until=35)
        process.stop()
        sim.run(until=100)
        assert trace == [0, 10, 20, 30]
        assert not process.alive

    def test_process_yield_none_resumes_same_instant(self):
        sim = Simulator()
        times = []

        def worker():
            times.append(sim.now)
            yield None
            times.append(sim.now)

        sim.process(worker())
        sim.run()
        assert times == [0, 0]

    def test_negative_yield_raises(self):
        sim = Simulator()

        def worker():
            yield -1

        sim.process(worker())
        with pytest.raises(SimulationError):
            sim.run()

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def worker():
            yield "nonsense"

        sim.process(worker())
        with pytest.raises(SimulationError):
            sim.run()

    def test_signal_wakes_waiters_with_value(self):
        sim = Simulator()
        ready = sim.signal("ready")
        received = []

        def waiter():
            value = yield ready
            received.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(lambda: ready.fire("go"), after=100)
        sim.run()
        assert received == [(100, "go")]

    def test_signal_wakes_multiple_waiters(self):
        sim = Simulator()
        ready = sim.signal()
        woken = []

        def waiter(tag):
            yield ready
            woken.append(tag)

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.schedule(ready.fire, after=10)
        sim.run()
        assert sorted(woken) == ["a", "b"]

    def test_finished_signal_fires_on_completion(self):
        sim = Simulator()
        results = []

        def short():
            yield 10
            return 42

        process = sim.process(short())

        def observer():
            value = yield process.finished
            results.append(value)

        sim.process(observer())
        sim.run()
        assert results == [42]


def test_unhooked_trace_goes_to_default_sink():
    sim = Simulator()
    seen = []
    sim.default_sink = lambda t, msg: seen.append((t, msg))
    sim.schedule(lambda: sim.trace("lonely"), after=3)
    sim.run()
    assert seen == [(3, "lonely")]


def test_unhooked_trace_routes_into_observability():
    from repro.obs import capture

    with capture() as cap:
        sim = Simulator()
        sim.trace("visible")
    instants = [
        e for e in cap.tracer.events if e.get("name") == "sim.trace"
    ]
    assert len(instants) == 1
    assert instants[0]["args"]["message"] == "visible"
    # with observability off, the default sink is a harmless no-op
    Simulator().trace("dropped")
