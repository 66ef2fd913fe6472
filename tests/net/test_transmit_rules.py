"""When a port's transmission decisions take effect.

A frame is lost if its link is down at the instant its serialization
ends; a frame already propagating arrives.  The loss model is asked once
per frame, counters and telemetry see each frame once, and ``kick``
restarts a queue a time-aware shaper had held.
"""

import inspect

from repro import obs
from repro.net import Topology, TrafficClass
from repro.obs.telemetry import TelemetryHub
from repro.simcore import Simulator
from repro.tsn import TimeAwareShaper, always_open, protected_window_gcl

#: 1 400 B payload -> 1 442 wire bytes -> 11 536 ns at 1 Gbit/s.
BIG_TX_NS = 11_536
PROPAGATION_NS = 5_000


def two_hosts(**link_kwargs):
    sim = Simulator()
    topo = Topology(sim)
    a, b = topo.add_host("a"), topo.add_host("b")
    link = topo.connect(
        a, b, bandwidth_bps=1e9, propagation_delay_ns=PROPAGATION_NS,
        **link_kwargs,
    )
    received = []
    b.on_receive(lambda packet: received.append(sim.now))
    return sim, a, link, received


class TestLinkStateAtSerializationEnd:
    def test_down_mid_serialization_loses_the_frame(self):
        sim, a, link, received = two_hosts()
        a.send("b", payload_bytes=1_400)
        sim.schedule(link.set_down, after=BIG_TX_NS // 2)
        sim.run()
        assert received == []
        assert link.lost_frames == 1
        assert a.ports[0].busy_until_ns == BIG_TX_NS

    def test_down_and_restored_within_serialization_keeps_the_frame(self):
        sim, a, link, received = two_hosts()
        a.send("b", payload_bytes=1_400)
        sim.schedule(link.set_down, after=2_000)
        sim.schedule(link.set_up, after=5_000)
        sim.run()
        assert received == [BIG_TX_NS + PROPAGATION_NS]
        assert link.lost_frames == 0

    def test_down_while_propagating_still_delivers(self):
        sim, a, link, received = two_hosts()
        a.send("b", payload_bytes=1_400)
        sim.schedule(link.set_down, after=BIG_TX_NS + PROPAGATION_NS // 2)
        sim.run()
        assert received == [BIG_TX_NS + PROPAGATION_NS]
        assert link.lost_frames == 0

    def test_queued_frames_stall_until_the_link_returns(self):
        sim, a, link, received = two_hosts()
        a.send("b", payload_bytes=1_400)
        a.send("b", payload_bytes=1_400)
        sim.schedule(link.set_down, after=BIG_TX_NS // 2)
        sim.schedule(link.set_up, after=100_000)
        sim.run()
        # The first frame is lost mid-serialization; the second waits in
        # the queue and starts when the link comes back.
        assert link.lost_frames == 1
        assert received == [100_000 + BIG_TX_NS + PROPAGATION_NS]


class TestLossModel:
    def test_asked_exactly_once_per_frame(self):
        asked = []

        def drop_even(packet):
            asked.append(packet.sequence)
            return packet.sequence % 2 == 0

        sim, a, link, received = two_hosts(loss_model=drop_even)
        for sequence in range(6):
            a.send("b", payload_bytes=20, sequence=sequence)
        sim.run()
        assert asked == list(range(6))
        assert len(received) == 3
        assert link.lost_frames == 3

    def test_not_asked_for_a_frame_lost_to_a_down_link(self):
        asked = []
        sim, a, link, received = two_hosts(
            loss_model=lambda packet: asked.append(packet) or False
        )
        a.send("b", payload_bytes=1_400)
        sim.schedule(link.set_down, after=BIG_TX_NS // 2)
        sim.run()
        assert asked == []
        assert link.lost_frames == 1


def rt_window_shaper():
    """Cyclic-RT (PCP 6) may only go in [300 us, 400 us) of each 1 ms."""
    return TimeAwareShaper(
        protected_window_gcl(
            1_000_000, 100_000, rt_pcps=frozenset({6}), rt_offset_ns=300_000
        )
    )


class TestIdleHopPath:
    def test_idle_two_link_path_fires_only_bound_deliveries(self):
        sim = Simulator()
        scheduled = []
        schedule = sim.schedule

        def recording_schedule(callback, *args, **kwargs):
            scheduled.append(callback)
            return schedule(callback, *args, **kwargs)

        sim.schedule = recording_schedule
        topo = Topology(sim)
        h0, h1 = topo.add_host("h0"), topo.add_host("h1")
        sw = topo.add_switch("sw")
        topo.connect(h0, sw)
        topo.connect(sw, h1)
        sw.install_route("h1", 1)
        received = []
        h1.on_receive(received.append)
        h0.send("h1", payload_bytes=20)
        sim.run()
        assert len(received) == 1
        # One delivery per link and no wakes on an idle path: each event
        # is a bound Port.deliver, never a per-frame closure.
        assert [cb.__qualname__ for cb in scheduled] == ["Port.deliver"] * 2
        assert all(inspect.ismethod(cb) for cb in scheduled)
        assert sim.stats.events_executed == 2


class TestTimeAwareShaper:
    def test_holds_a_frame_until_its_window(self):
        sim, a, _, received = two_hosts()
        a.ports[0].shaper = rt_window_shaper()
        a.send("b", payload_bytes=20, traffic_class=TrafficClass.CYCLIC_RT)
        sim.run(until=1_000_000)
        assert received == [300_000 + 672 + PROPAGATION_NS]

    def test_frame_inside_its_window_costs_one_event(self):
        sim, a, _, received = two_hosts()
        a.ports[0].shaper = rt_window_shaper()
        sim.run(until=300_000)
        a.send("b", payload_bytes=20, traffic_class=TrafficClass.CYCLIC_RT)
        sim.run(until=1_000_000)
        assert received == [300_000 + 672 + PROPAGATION_NS]
        # The delivery only: with nothing queued behind the frame, the
        # shaped port arms no wake at the end of its transmission.
        assert sim.stats.events_executed == 1

    def test_kick_restarts_a_stalled_queue(self):
        sim, a, _, received = two_hosts()
        port = a.ports[0]
        port.shaper = rt_window_shaper()
        a.send("b", payload_bytes=20, traffic_class=TrafficClass.CYCLIC_RT)

        def open_all_gates():
            port.shaper.gcl = always_open()
            port.kick()

        sim.schedule(open_all_gates, after=100_000)
        sim.run(until=1_000_000)
        assert received == [100_000 + 672 + PROPAGATION_NS]


class TestTelemetryPerPort:
    FRAMES = 5

    def test_busy_time_and_bytes_on_a_loaded_line(self):
        with obs.capture(
            metrics=False, tracing=False, telemetry=TelemetryHub()
        ):
            sim = Simulator()
            topo = Topology(sim)
            h0, h1 = topo.add_host("h0"), topo.add_host("h1")
            sw = topo.add_switch("sw")
            topo.connect(h0, sw)
            topo.connect(sw, h1)
            sw.install_route("h1", 1)
            for sequence in range(self.FRAMES):
                h0.send("h1", payload_bytes=20, sequence=sequence)
            sim.run()
        # Frame k leaves h0 at k * 672 ns and sw 672 + 500 + 1 000 ns later.
        last_start = (self.FRAMES - 1) * 672
        for port, offset in ((h0.ports[0], 0), (sw.ports[1], 2_172)):
            probe = port._tel
            assert probe.busy_ns == self.FRAMES * 672
            assert probe.tx_bytes == self.FRAMES * 84
            assert probe._bytes_ring.observed == self.FRAMES
            assert probe._busy_ring.last == (
                last_start + offset, self.FRAMES * 672
            )
        assert sw.ports[0]._tel.busy_ns == 0
