"""Event-queue ordering and cancellation semantics."""

import pytest

from repro.simcore.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL
from tests.simcore.reference_loop import EventQueue


def test_pop_returns_earliest_event():
    queue = EventQueue()
    queue.push(30, lambda: "c")
    queue.push(10, lambda: "a")
    queue.push(20, lambda: "b")
    assert queue.pop().time == 10
    assert queue.pop().time == 20
    assert queue.pop().time == 30


def test_same_time_fires_in_scheduling_order():
    queue = EventQueue()
    first = queue.push(5, lambda: 1)
    second = queue.push(5, lambda: 2)
    assert queue.pop() is first
    assert queue.pop() is second


def test_priority_orders_within_same_time():
    queue = EventQueue()
    normal = queue.push(5, lambda: 1, priority=PRIORITY_NORMAL)
    high = queue.push(5, lambda: 2, priority=PRIORITY_HIGH)
    low = queue.push(5, lambda: 3, priority=PRIORITY_LOW)
    assert queue.pop() is high
    assert queue.pop() is normal
    assert queue.pop() is low


def test_priority_never_overrides_time():
    queue = EventQueue()
    late_high = queue.push(10, lambda: 1, priority=PRIORITY_HIGH)
    early_low = queue.push(5, lambda: 2, priority=PRIORITY_LOW)
    assert queue.pop() is early_low
    assert queue.pop() is late_high


def test_cancelled_event_is_skipped():
    queue = EventQueue()
    doomed = queue.push(1, lambda: 1)
    survivor = queue.push(2, lambda: 2)
    doomed.cancel()
    assert queue.pop() is survivor


def test_len_excludes_cancelled():
    queue = EventQueue()
    keep = queue.push(1, lambda: 1)
    drop = queue.push(2, lambda: 2)
    assert len(queue) == 2
    drop.cancel()
    assert len(queue) == 1
    assert bool(queue)
    keep.cancel()
    assert not queue


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(IndexError):
        queue.pop()


def test_pop_all_cancelled_raises():
    queue = EventQueue()
    queue.push(1, lambda: 1).cancel()
    with pytest.raises(IndexError):
        queue.pop()


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1, lambda: 1)
    queue.push(5, lambda: 2)
    first.cancel()
    assert queue.peek_time() == 5


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push(-1, lambda: 1)


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1, lambda: 1)
    queue.push(2, lambda: 2)
    queue.clear()
    assert not queue
