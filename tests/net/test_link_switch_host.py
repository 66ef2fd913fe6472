"""Links, ports, switches, and hosts over the event kernel."""

import pytest

from repro import obs
from repro.net import Host, Link, Packet, Switch, Topology, TrafficClass
from repro.obs.telemetry import TelemetryHub
from repro.simcore import Simulator


def two_hosts(bandwidth=1e9, delay=500):
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("a")
    b = topo.add_host("b")
    link = topo.connect(a, b, bandwidth_bps=bandwidth, propagation_delay_ns=delay)
    return sim, a, b, link


class TestLinkTiming:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim, a, b, _ = two_hosts(bandwidth=1e9, delay=500)
        arrivals = []
        b.on_receive(lambda p: arrivals.append(sim.now))
        a.send("b", payload_bytes=20)
        sim.run()
        # 84 wire bytes at 1 Gbit/s = 672 ns, plus 500 ns propagation.
        assert arrivals == [672 + 500]

    def test_back_to_back_frames_serialize_sequentially(self):
        sim, a, b, _ = two_hosts(bandwidth=1e9, delay=0)
        arrivals = []
        b.on_receive(lambda p: arrivals.append(sim.now))
        a.send("b", payload_bytes=20)
        a.send("b", payload_bytes=20)
        sim.run()
        assert arrivals == [672, 1344]

    def test_full_duplex_no_interference(self):
        sim, a, b, _ = two_hosts(delay=0)
        times = {}
        a.on_receive(lambda p: times.setdefault("a", sim.now))
        b.on_receive(lambda p: times.setdefault("b", sim.now))
        a.send("b", payload_bytes=20)
        b.send("a", payload_bytes=20)
        sim.run()
        assert times["a"] == times["b"] == 672

    def test_down_link_loses_frames(self):
        sim, a, b, link = two_hosts()
        received = []
        b.on_receive(received.append)
        link.set_down()
        a.send("b", payload_bytes=20)
        sim.run()
        assert received == []
        assert link.lost_frames == 0  # stalled in queue, not lost mid-flight

    def test_link_recovery_resumes_stalled_queue(self):
        sim, a, b, link = two_hosts()
        received = []
        b.on_receive(received.append)
        link.set_down()
        a.send("b", payload_bytes=20)
        sim.run(until=10_000)
        link.set_up()
        sim.run(until=20_000)
        assert len(received) == 1

    def test_loss_model_drops_selected_frames(self):
        sim = Simulator()
        topo = Topology(sim)
        a, b = topo.add_host("a"), topo.add_host("b")
        topo.connect(a, b, loss_model=lambda p: p.sequence % 2 == 0)
        received = []
        b.on_receive(received.append)
        for seq in range(6):
            a.send("b", payload_bytes=20, sequence=seq)
        sim.run()
        assert [p.sequence for p in received] == [1, 3, 5]

    def test_port_counters(self):
        with obs.capture(
            metrics=False, tracing=False, telemetry=TelemetryHub()
        ):
            sim, a, b, _ = two_hosts()
            a.send("b", payload_bytes=20)
            sim.run()
        assert a.ports[0]._tel.tx_bytes == 84
        assert b.ports[0]._tel.tx_bytes == 0
        assert (a.tx_count, b.rx_count) == (1, 1)


class TestHost:
    def test_host_ignores_foreign_frames(self):
        sim, a, b, _ = two_hosts()
        received = []
        b.on_receive(received.append)
        packet = Packet(src="a", dst="not-b", payload_bytes=20)
        a.ports[0].send(packet)
        sim.run()
        assert received == []
        assert b.rx_count == 0

    def test_flow_handler_scoped_to_flow(self):
        sim, a, b, _ = two_hosts()
        flow_hits, all_hits = [], []
        b.on_flow("f1", flow_hits.append)
        b.on_receive(all_hits.append)
        a.send("b", payload_bytes=20, flow_id="f1")
        a.send("b", payload_bytes=20, flow_id="f2")
        sim.run()
        assert len(flow_hits) == 1
        assert len(all_hits) == 2

    def test_send_without_port_raises(self):
        sim = Simulator()
        host = Host(sim, "lonely")
        with pytest.raises(RuntimeError):
            host.send("x", payload_bytes=10)

    def test_record_received_flag(self):
        sim, a, b, _ = two_hosts()
        b.record_received = True
        a.send("b", payload_bytes=20)
        sim.run()
        assert len(b.received) == 1


class TestSwitch:
    def build(self):
        sim = Simulator()
        topo = Topology(sim)
        switch = topo.add_switch("sw", processing_delay_ns=1_000)
        hosts = [topo.add_host(f"h{i}") for i in range(3)]
        for host in hosts:
            topo.connect(switch, host)
        return sim, switch, hosts

    def test_unknown_destination_floods(self):
        sim, switch, (h0, h1, h2) = self.build()
        hits = []
        h1.on_receive(lambda p: hits.append("h1"))
        h2.on_receive(lambda p: hits.append("h2"))
        h0.send("h2", payload_bytes=20)
        sim.run()
        # Flooded to both; only h2 accepts (h1 drops foreign dst silently).
        assert hits == ["h2"]
        assert switch.flooded_frames == 1

    def test_learning_avoids_second_flood(self):
        sim, switch, (h0, h1, h2) = self.build()
        h0.send("h2", payload_bytes=20)
        sim.run()
        h2.send("h0", payload_bytes=20)  # returns via learned entry
        sim.run()
        assert switch.flooded_frames == 1
        assert switch.forwarded_frames == 1

    def test_static_route_wins_over_learning(self):
        sim, switch, (h0, h1, h2) = self.build()
        switch.install_route("h2", switch.ports[2].index)
        h0.send("h2", payload_bytes=20)
        sim.run()
        assert switch.flooded_frames == 0
        assert switch.forwarded_frames == 1

    def test_frame_to_ingress_port_filtered(self):
        sim, switch, (h0, h1, h2) = self.build()
        switch.install_route("h0", 0)
        # A frame from h0 addressed to h0 would egress its ingress port.
        h0.send("h0", payload_bytes=20)
        sim.run()
        assert switch.filtered_frames == 1

    def test_invalid_route_port_rejected(self):
        sim, switch, _ = self.build()
        with pytest.raises(ValueError):
            switch.install_route("x", 99)

    def test_processing_delay_applied(self):
        sim, switch, (h0, h1, h2) = self.build()
        switch.install_route("h1", 1)
        arrivals = []
        h1.on_receive(lambda p: arrivals.append(sim.now))
        h0.send("h1", payload_bytes=20)
        sim.run()
        # two serializations (672 each), two propagations (500), 1000 switch.
        assert arrivals == [672 + 500 + 1_000 + 672 + 500]

    def test_hops_recorded(self):
        sim, switch, (h0, h1, h2) = self.build()
        switch.install_route("h1", 1)
        h0.send("h1", payload_bytes=20)
        sim.run()
        # One routed hop: forwarded once, never flooded or filtered.
        assert (
            switch.forwarded_frames,
            switch.flooded_frames,
            switch.filtered_frames,
        ) == (1, 0, 0)
        assert (h1.rx_count, h2.rx_count) == (1, 0)

    def test_clear_learned(self):
        sim, switch, (h0, h1, h2) = self.build()
        h0.send("h2", payload_bytes=20)
        sim.run()
        switch.clear_learned()
        h1.send("h0", payload_bytes=20)
        sim.run()
        assert switch.flooded_frames == 2
