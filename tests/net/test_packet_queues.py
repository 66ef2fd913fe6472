"""Packet framing and queue disciplines."""

import pytest

from repro.net import (
    FifoQueue,
    MAX_PAYLOAD_BYTES,
    MIN_FRAME_BYTES,
    Packet,
    StrictPriorityQueue,
    TrafficClass,
)


class TestPacket:
    def test_small_payload_padded_to_minimum_frame(self):
        packet = Packet(src="a", dst="b", payload_bytes=20)
        assert packet.frame_bytes == MIN_FRAME_BYTES

    def test_large_payload_not_padded(self):
        packet = Packet(src="a", dst="b", payload_bytes=1000)
        assert packet.frame_bytes == 1000 + 18 + 4

    def test_wire_size_adds_preamble_and_ipg(self):
        packet = Packet(src="a", dst="b", payload_bytes=20)
        assert packet.wire_size_bytes == MIN_FRAME_BYTES + 20

    def test_serialization_time_gigabit(self):
        # 64B frame + 20B overhead = 84B = 672 ns at 1 Gbit/s.
        packet = Packet(src="a", dst="b", payload_bytes=20)
        assert packet.serialization_time_ns(1e9) == 672

    def test_serialization_faster_on_faster_link(self):
        packet = Packet(src="a", dst="b", payload_bytes=500)
        assert packet.serialization_time_ns(10e9) < packet.serialization_time_ns(1e9)

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", payload_bytes=MAX_PAYLOAD_BYTES + 1)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", payload_bytes=-1)

    def test_invalid_bandwidth_rejected(self):
        packet = Packet(src="a", dst="b", payload_bytes=20)
        with pytest.raises(ValueError):
            packet.serialization_time_ns(0)

    def test_packet_ids_unique(self):
        first = Packet(src="a", dst="b", payload_bytes=1)
        second = Packet(src="a", dst="b", payload_bytes=1)
        assert first.packet_id != second.packet_id

    def test_replication_copy_is_independent(self):
        original = Packet(
            src="a", dst="b", payload_bytes=10, payload={"k": 1}, sequence=7
        )
        clone = original.copy_for_replication()
        assert clone.packet_id != original.packet_id
        assert clone.payload == original.payload
        assert clone.sequence == 7
        clone.payload["k"] = 2
        assert original.payload["k"] == 1

    def test_traffic_class_pcp_mapping(self):
        assert TrafficClass.NETWORK_CONTROL.pcp == 7
        assert TrafficClass.CYCLIC_RT.pcp == 6
        assert TrafficClass.BULK.pcp == 0


def make(tc=TrafficClass.BEST_EFFORT, tag=0):
    return Packet(src="a", dst="b", payload_bytes=46, traffic_class=tc, sequence=tag)


class TestFifoQueue:
    def test_fifo_ordering(self):
        queue = FifoQueue()
        first, second = make(tag=1), make(tag=2)
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second
        assert queue.dequeue() is None

    def test_drop_tail_on_overflow(self):
        queue = FifoQueue(capacity=2)
        assert queue.enqueue(make())
        assert queue.enqueue(make())
        assert not queue.enqueue(make())
        assert queue.drops == 1
        assert len(queue) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FifoQueue(capacity=0)


class TestStrictPriorityQueue:
    def test_higher_pcp_always_first(self):
        queue = StrictPriorityQueue()
        low = make(TrafficClass.BULK)
        high = make(TrafficClass.CYCLIC_RT)
        queue.enqueue(low)
        queue.enqueue(high)
        assert queue.dequeue() is high
        assert queue.dequeue() is low

    def test_fifo_within_class(self):
        queue = StrictPriorityQueue()
        first, second = make(tag=1), make(tag=2)
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first

    def test_dequeue_from_respects_allowed_set(self):
        queue = StrictPriorityQueue()
        rt = make(TrafficClass.CYCLIC_RT)
        be = make(TrafficClass.BEST_EFFORT)
        queue.enqueue(rt)
        queue.enqueue(be)
        assert queue.dequeue_from([TrafficClass.BEST_EFFORT.pcp]) is be
        assert queue.dequeue_from([TrafficClass.BEST_EFFORT.pcp]) is None
        assert queue.dequeue_from([TrafficClass.CYCLIC_RT.pcp]) is rt

    def test_peek_does_not_remove(self):
        queue = StrictPriorityQueue()
        packet = make(TrafficClass.ALARM)
        queue.enqueue(packet)
        assert queue.peek_from([TrafficClass.ALARM.pcp]) is packet
        assert len(queue) == 1

    def test_per_class_capacity(self):
        queue = StrictPriorityQueue(capacity_per_class=1)
        assert queue.enqueue(make(TrafficClass.BULK))
        assert not queue.enqueue(make(TrafficClass.BULK))
        assert queue.enqueue(make(TrafficClass.ALARM))
        assert queue.drops == 1

    def test_occupancy_by_pcp(self):
        queue = StrictPriorityQueue()
        queue.enqueue(make(TrafficClass.CYCLIC_RT))
        queue.enqueue(make(TrafficClass.CYCLIC_RT))
        queue.enqueue(make(TrafficClass.BULK))
        assert queue.occupancy_by_pcp() == {6: 2, 0: 1}
