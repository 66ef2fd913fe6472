"""802.1Qbu frame preemption."""

import pytest

from repro import obs
from repro.net import (
    CyclicSender,
    FlowSpec,
    Host,
    Link,
    Packet,
    PoissonSender,
    StrictPriorityQueue,
    Topology,
    TrafficClass,
)
from repro.net.routing import install_shortest_path_routes
from repro.metrics import jitter_report
from repro.obs.telemetry import TelemetryHub
from repro.simcore import Simulator, MS, SEC, US
from repro.tsn import (
    MIN_FRAGMENT_BYTES,
    ScheduleSynthesizer,
    enable_preemption,
)


def direct_pair():
    sim = Simulator(seed=0)
    a = Host(sim, "a")
    b = Host(sim, "b")
    b.record_received = True
    Link(sim, a.add_port(), b.add_port(), 1e9, 0)
    return sim, a, b


def big_be(sequence=0):
    return Packet(
        src="a", dst="b", payload_bytes=1_400,
        traffic_class=TrafficClass.BULK, sequence=sequence,
    )


def small_express(sequence=0):
    return Packet(
        src="a", dst="b", payload_bytes=46,
        traffic_class=TrafficClass.CYCLIC_RT, sequence=sequence,
    )


class TestMechanics:
    def test_express_cuts_through_preemptable_frame(self):
        sim, a, b = direct_pair()
        config = enable_preemption(a.ports[0])
        arrivals = {}
        b.on_receive(lambda p: arrivals.setdefault(p.traffic_class.name, sim.now))
        a.ports[0].send(big_be())
        # Express frame arrives 2 us into the ~11.5 us BE transmission.
        sim.schedule(lambda: a.ports[0].send(small_express()), after=2 * US)
        sim.run(until=1 * MS)
        assert config.preemptions == 1
        # Express completed before the BE frame: 2 us + ~0.7 us tx.
        assert arrivals["CYCLIC_RT"] < 3_500
        assert arrivals["BULK"] > arrivals["CYCLIC_RT"]

    def test_without_preemption_express_waits(self):
        sim, a, b = direct_pair()
        arrivals = {}
        b.on_receive(lambda p: arrivals.setdefault(p.traffic_class.name, sim.now))
        a.ports[0].send(big_be())
        sim.schedule(lambda: a.ports[0].send(small_express()), after=2 * US)
        sim.run(until=1 * MS)
        # Head-of-line blocking: express waits the full BE serialization.
        assert arrivals["CYCLIC_RT"] > 11_000

    def test_both_frames_eventually_delivered(self):
        sim, a, b = direct_pair()
        enable_preemption(a.ports[0])
        a.ports[0].send(big_be(sequence=1))
        sim.schedule(lambda: a.ports[0].send(small_express(sequence=2)), after=2 * US)
        sim.run(until=1 * MS)
        assert sorted(p.sequence for p in b.received) == [1, 2]

    def test_fragmentation_adds_overhead_time(self):
        # Delivery of the preempted frame is later than the unpreempted
        # case by the express transmission plus fragment overhead.
        def be_arrival(preempt):
            sim, a, b = direct_pair()
            if preempt:
                enable_preemption(a.ports[0])
            done = {}
            b.on_receive(
                lambda p: done.setdefault(p.traffic_class.name, sim.now)
            )
            a.ports[0].send(big_be())
            sim.schedule(lambda: a.ports[0].send(small_express()), after=2 * US)
            sim.run(until=1 * MS)
            return done["BULK"]

        assert be_arrival(preempt=True) > be_arrival(preempt=False)

    def test_express_never_preempted_by_express(self):
        sim, a, b = direct_pair()
        config = enable_preemption(a.ports[0])
        a.ports[0].send(small_express(sequence=1))
        sim.schedule(lambda: a.ports[0].send(small_express(sequence=2)), after=100)
        sim.run(until=1 * MS)
        assert config.preemptions == 0
        assert [p.sequence for p in b.received] == [1, 2]

    def test_hold_until_minimum_fragment(self):
        sim, a, b = direct_pair()
        config = enable_preemption(a.ports[0])
        a.ports[0].send(big_be())
        # Express arrives 100 ns in: under the 512 ns (64 B) boundary.
        sim.schedule(lambda: a.ports[0].send(small_express()), after=100)
        sim.run(until=1 * MS)
        assert config.hold_waits == 1
        assert config.preemptions == 1

    def test_nearly_finished_frame_not_preempted(self):
        sim, a, b = direct_pair()
        config = enable_preemption(a.ports[0])
        a.ports[0].send(big_be())
        # Express arrives with < 64 wire bytes left (~11.0 of 11.5 us).
        sim.schedule(lambda: a.ports[0].send(small_express()), after=11_200)
        sim.run(until=1 * MS)
        assert config.preemptions == 0

    def test_repeated_preemption_of_same_frame(self):
        sim, a, b = direct_pair()
        config = enable_preemption(a.ports[0])
        a.ports[0].send(big_be())
        sim.schedule(lambda: a.ports[0].send(small_express(1)), after=2 * US)
        sim.schedule(lambda: a.ports[0].send(small_express(2)), after=6 * US)
        sim.run(until=1 * MS)
        assert config.preemptions == 2
        assert len(b.received) == 3

    def test_incompatible_with_shaper(self):
        sim, a, b = direct_pair()
        from repro.tsn import TimeAwareShaper, always_open

        a.ports[0].shaper = TimeAwareShaper(always_open())
        with pytest.raises(ValueError):
            enable_preemption(a.ports[0])


class TestTelemetry:
    def test_fragments_report_their_wire_time(self):
        with obs.capture(
            tracing=False, telemetry=TelemetryHub()
        ) as handle:
            sim, a, b = direct_pair()
            port = a.ports[0]
            config = enable_preemption(port)
            port.send(big_be())
            sim.schedule(lambda: port.send(small_express()), after=2 * US)
            sim.run(until=1 * MS)
        assert config.preemptions == 1
        # 2 000 ns of the BE frame (250 B), the 88 B express frame, then
        # the other 1 192 B plus 12 B fragment overhead.
        fragments = [2_000, 704, (1_192 + 12) * 8]
        probe = port._tel
        assert probe.busy_ns == sum(fragments)
        assert probe.tx_bytes == 1_442 + 88
        histogram = handle.registry.histogram("net.port.tx_ns")
        assert (histogram.count, histogram.sum) == (3, sum(fragments))

    def test_queue_drops_reach_the_flight_recorder(self):
        with obs.capture(
            metrics=False, tracing=False, telemetry=TelemetryHub()
        ) as handle:
            sim = Simulator(seed=0)
            a, b = Host(sim, "a"), Host(sim, "b")
            port = a.add_port(queue=StrictPriorityQueue(capacity_per_class=1))
            Link(sim, port, b.add_port(), 1e9, 0)
            enable_preemption(port)
            for sequence in range(3):
                # One on the wire, one queued, one dropped.
                port.send(big_be(sequence))
            sim.run(until=1 * MS)
        assert port.queue.drops == 1
        events = handle.telemetry.flight.snapshot("check")["components"]
        assert [event["kind"] for event in events[port.name]] == [
            "queue.drop"
        ]


class TestEndToEndJitter:
    def run_line(self, preempt):
        sim = Simulator(seed=17)
        from repro.net import build_line

        topo = build_line(sim, 4)
        topo.link_between("sw1", "h1").bandwidth_bps = 10e9
        install_shortest_path_routes(topo)
        if preempt:
            for switch in topo.switches():
                for port in switch.ports:
                    enable_preemption(port)
        spec = FlowSpec(
            "rt", "h0", "h3", period_ns=2 * MS, payload_bytes=50,
            traffic_class=TrafficClass.CYCLIC_RT,
        )
        arrivals = []
        topo.devices["h3"].on_flow("rt", lambda p: arrivals.append(sim.now))
        CyclicSender(sim, topo.devices["h0"], spec).start()
        PoissonSender(
            sim, topo.devices["h1"],
            FlowSpec("noise", "h1", "h3", payload_bytes=1_400,
                     traffic_class=TrafficClass.BEST_EFFORT),
            rate_pps=50_000, rng=sim.streams.stream("noise"),
        ).start()
        sim.run(until=2 * SEC)
        return jitter_report(arrivals[5:], 2 * MS)

    def test_preemption_cuts_interference_jitter(self):
        plain = self.run_line(preempt=False)
        preempted = self.run_line(preempt=True)
        # Head-of-line blocking shrinks from a full 1.5 kB frame per hop
        # to at most a 64-byte fragment tail per hop.
        assert preempted.max_abs_jitter_ns < plain.max_abs_jitter_ns / 4
        assert preempted.mean_abs_jitter_ns < plain.mean_abs_jitter_ns / 4
