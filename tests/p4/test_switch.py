"""P4 switch device: forwarding, rewriting, cloning, injection."""

import pytest

from repro.net import Host, Link, Packet
from repro.p4 import P4Switch, Table
from repro.simcore import Simulator, MS


def build_switch(host_count=3):
    sim = Simulator()
    switch = P4Switch(sim, "p4sw")
    hosts = []
    for i in range(host_count):
        host = Host(sim, f"h{i}")
        host.record_received = True
        Link(sim, host.add_port(), switch.add_port(), 1e9, 100)
        hosts.append(host)
    return sim, switch, hosts


def install_l2(switch, mapping):
    table = switch.pipeline.add_table(Table("l2", key_fields=["dst"]))
    switch.pipeline.register_action("fwd", lambda ctx, port: ctx.forward(port))
    for dst, port in mapping.items():
        table.insert([dst], "fwd", {"port": port})
    return table


class TestForwarding:
    def test_table_driven_forwarding(self):
        sim, switch, hosts = build_switch()
        install_l2(switch, {"h1": 1, "h2": 2})
        hosts[0].send("h1", payload_bytes=50)
        sim.run(until=1 * MS)
        assert len(hosts[1].received) == 1
        assert len(hosts[2].received) == 0
        assert switch.processed_frames == 1

    def test_unmatched_frame_dropped_and_counted(self):
        sim, switch, hosts = build_switch()
        install_l2(switch, {})
        hosts[0].send("h1", payload_bytes=50)
        sim.run(until=1 * MS)
        assert switch.dropped_frames == 1
        assert len(hosts[1].received) == 0

    def test_field_rewrite_applied_by_deparser(self):
        sim, switch, hosts = build_switch()
        switch.pipeline.register_action(
            "rewrite", lambda ctx, port, dst: (ctx.set_field("dst", dst),
                                               ctx.forward(port)),
        )
        table = switch.pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["h1"], "rewrite", {"port": 2, "dst": "h2"})
        hosts[0].send("h1", payload_bytes=50)
        sim.run(until=1 * MS)
        assert len(hosts[2].received) == 1
        assert hosts[2].received[0].dst == "h2"

    def test_clone_emits_rewritten_copy(self):
        sim, switch, hosts = build_switch()
        switch.pipeline.register_action(
            "mirror",
            lambda ctx, port, clone_port, clone_dst: (
                ctx.forward(port), ctx.clone(clone_port, dst=clone_dst)
            ),
        )
        table = switch.pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["h1"], "mirror", {"port": 1, "clone_port": 2,
                                        "clone_dst": "h2"})
        hosts[0].send("h1", payload_bytes=50, sequence=9)
        sim.run(until=1 * MS)
        assert len(hosts[1].received) == 1
        assert len(hosts[2].received) == 1
        assert hosts[2].received[0].dst == "h2"
        assert hosts[2].received[0].sequence == 9

    def test_clone_with_invalid_field_raises(self):
        sim, switch, hosts = build_switch()
        switch.pipeline.register_action(
            "bad", lambda ctx: ctx.clone(1, payload_bytes=999)
        )
        table = switch.pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["h1"], "bad")
        hosts[0].send("h1", payload_bytes=50)
        with pytest.raises(ValueError):
            sim.run(until=1 * MS)

    def test_multicast_forward(self):
        sim, switch, hosts = build_switch()
        switch.pipeline.register_action(
            "flood", lambda ctx: [ctx.forward(p) for p in (1, 2)]
        )
        table = switch.pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["h1"], "flood")
        egress = []
        switch.egress_taps.append(lambda packet, index: egress.append(index))
        # dst stays h1, so only h1 accepts; h2 gets the frame but drops it.
        hosts[0].send("h1", payload_bytes=50)
        sim.run(until=1 * MS)
        assert len(hosts[1].received) == 1
        assert egress == [1, 2]


class TestControlPlaneApi:
    def test_digest_listener_invoked(self):
        sim, switch, hosts = build_switch()
        digests = []
        switch.on_digest(lambda data, ctx: digests.append((data, ctx.packet.src)))
        switch.pipeline.register_action("punt", lambda ctx: ctx.digest(kind="p"))
        table = switch.pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["h1"], "punt")
        hosts[0].send("h1", payload_bytes=50)
        sim.run(until=1 * MS)
        assert digests == [({"kind": "p"}, "h0")]

    def test_inject_sends_packet_out(self):
        sim, switch, hosts = build_switch()
        frame = Packet(src="ctrl", dst="h1", payload_bytes=50)
        switch.inject(frame, egress_port=1)
        sim.run(until=1 * MS)
        assert len(hosts[1].received) == 1

    def test_inject_invalid_port_rejected(self):
        sim, switch, hosts = build_switch()
        with pytest.raises(ValueError):
            switch.inject(Packet(src="c", dst="d", payload_bytes=10), 99)

    def test_table_and_register_accessors(self):
        sim, switch, hosts = build_switch()
        table = install_l2(switch, {"h1": 1})
        assert switch.table("l2") is table
        from repro.p4 import Register

        register = switch.pipeline.add_register(Register("r", 4))
        assert switch.register("r") is register

    def test_taps_observe_traffic(self):
        sim, switch, hosts = build_switch()
        install_l2(switch, {"h1": 1})
        ingress, egress = [], []
        switch.ingress_taps.append(lambda p, i: ingress.append((p.src, i)))
        switch.egress_taps.append(lambda p, i: egress.append((p.dst, i)))
        hosts[0].send("h1", payload_bytes=50)
        sim.run(until=1 * MS)
        assert ingress == [("h0", 0)]
        assert egress == [("h1", 1)]
