"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Simulator
from tests.simcore.reference_loop import EventQueue


@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(-5, 5)),
        min_size=1,
        max_size=200,
    )
)
def test_queue_pops_in_nondecreasing_time_order(items):
    queue = EventQueue()
    for time, priority in items:
        queue.push(time, lambda: None, priority=priority)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(popped)
    assert len(popped) == len(items)


@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=100),
    st.data(),
)
def test_cancellation_removes_exactly_chosen_events(times, data):
    queue = EventQueue()
    events = [queue.push(t, lambda: None) for t in times]
    to_cancel = data.draw(
        st.sets(st.integers(0, len(events) - 1), max_size=len(events))
    )
    for index in to_cancel:
        events[index].cancel()
    survivors = sorted(
        t for i, t in enumerate(times) if i not in to_cancel
    )
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == survivors


@given(st.lists(st.integers(0, 1_000), min_size=1, max_size=50))
@settings(deadline=None)
def test_simulator_executes_all_events_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(lambda d=delay: fired.append((sim.now, d)), after=delay)
    sim.run()
    assert len(fired) == len(delays)
    observed_times = [t for t, _ in fired]
    assert observed_times == sorted(observed_times)
    # Every event fired at exactly its scheduled time.
    assert all(t == d for t, d in fired)


@given(
    st.lists(st.integers(1, 500), min_size=1, max_size=20),
    st.integers(0, 10_000),
)
@settings(deadline=None)
def test_process_delays_accumulate_exactly(delays, extra):
    sim = Simulator()
    end_time = []

    def worker():
        for delay in delays:
            yield delay
        end_time.append(sim.now)

    sim.process(worker())
    sim.run(until=sum(delays) + extra)
    assert end_time == [sum(delays)]


@given(st.integers(0, 2**31), st.text(min_size=1, max_size=30))
def test_named_streams_reproducible(seed, name):
    from repro.simcore.rng import RandomStreams

    a = RandomStreams(seed=seed).stream(name).integers(1 << 40)
    b = RandomStreams(seed=seed).stream(name).integers(1 << 40)
    assert a == b
