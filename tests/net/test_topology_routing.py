"""Topology builders and static routing."""

import pytest

from repro.net import (
    Topology,
    build_leaf_spine,
    build_line,
    build_ring,
    build_star,
    install_shortest_path_routes,
    shortest_path,
)
from repro.simcore import Simulator
from tests.net.route_oracle import verify_routes


@pytest.fixture
def sim():
    return Simulator()


class TestBuilders:
    def test_line_shape(self, sim):
        topo = build_line(sim, 4)
        assert len(topo.hosts()) == 4
        assert len(topo.switches()) == 4
        assert len(topo.links) == 4 + 3
        assert topo.is_connected()

    def test_ring_shape(self, sim):
        topo = build_ring(sim, 5, hosts_per_switch=2)
        assert len(topo.switches()) == 5
        assert len(topo.hosts()) == 10
        assert len(topo.links) == 5 + 10
        assert topo.is_connected()

    def test_ring_minimum_size(self, sim):
        with pytest.raises(ValueError):
            build_ring(sim, 2)

    def test_star_shape(self, sim):
        topo = build_star(sim, 6)
        assert len(topo.switches()) == 1
        assert len(topo.hosts()) == 6
        assert all(
            len(shortest_path(topo, h.name, "sw0")) - 1 == 1
            for h in topo.hosts()
        )

    def test_leaf_spine_full_bipartite_core(self, sim):
        topo = build_leaf_spine(sim, leaf_count=4, spine_count=2, hosts_per_leaf=3)
        assert len(topo.hosts()) == 12
        # Each leaf connects to each spine.
        fabric_links = [
            link for link in topo.links
            if "spine" in link.port_a.device.name
            or "spine" in link.port_b.device.name
        ]
        assert len(fabric_links) == 8

    def test_duplicate_device_name_rejected(self, sim):
        topo = Topology(sim)
        topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_host("x")

    def test_link_between(self, sim):
        topo = build_line(sim, 2)
        assert topo.link_between("sw0", "sw1") is not None
        assert topo.link_between("sw0", "h1") is None

    def test_hop_count_same_device_zero(self, sim):
        topo = build_line(sim, 2)
        assert shortest_path(topo, "h0", "h0") == ["h0"]


class TestRouting:
    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (build_line, {"host_count": 5}),
            (build_ring, {"switch_count": 6, "hosts_per_switch": 2}),
            (build_star, {"host_count": 4}),
            (build_leaf_spine, {"leaf_count": 3, "spine_count": 2, "hosts_per_leaf": 2}),
        ],
    )
    def test_routes_verify_clean_on_all_topologies(self, sim, builder, kwargs):
        topo = builder(sim, **kwargs)
        installed = install_shortest_path_routes(topo)
        assert installed > 0
        assert verify_routes(topo) == []

    def test_shortest_path_endpoints(self, sim):
        topo = build_ring(sim, 6)
        path = shortest_path(topo, "h0_0", "h3_0")
        assert path[0] == "h0_0"
        assert path[-1] == "h3_0"
        # Ring of 6: 3 switch hops is the short way round.
        assert len(path) == 2 + 4

    def test_shortest_path_disconnected_raises(self, sim):
        topo = Topology(sim)
        topo.add_host("a")
        topo.add_host("b")
        with pytest.raises(ValueError):
            shortest_path(topo, "a", "b")

    def test_ring_routing_takes_short_direction(self, sim):
        topo = build_ring(sim, 8)
        install_shortest_path_routes(topo)
        # h1 is one switch hop from h0's switch going clockwise.
        assert len(shortest_path(topo, "h0_0", "h1_0")) - 1 == 3

    def test_end_to_end_delivery_on_leaf_spine(self, sim):
        topo = build_leaf_spine(sim, leaf_count=4, spine_count=2, hosts_per_leaf=2)
        install_shortest_path_routes(topo)
        hosts = topo.hosts()
        src, dst = hosts[0], hosts[-1]
        received = []
        dst.on_receive(received.append)
        src.send(dst.name, payload_bytes=100)
        sim.run()
        assert len(received) == 1
        # Cross-leaf path traverses leaf-spine-leaf: three switch hops.
        assert sum(s.forwarded_frames for s in topo.switches()) == 3

    def test_ecmp_seed_changes_spine_choice_somewhere(self, sim):
        topo = build_leaf_spine(sim, leaf_count=4, spine_count=4, hosts_per_leaf=4)
        install_shortest_path_routes(topo, ecmp_seed=0)
        tables_a = {
            s.name: dict(s.forwarding_table) for s in topo.switches()
        }
        for switch in topo.switches():
            switch.forwarding_table.clear()
        install_shortest_path_routes(topo, ecmp_seed=1)
        tables_b = {
            s.name: dict(s.forwarding_table) for s in topo.switches()
        }
        assert tables_a != tables_b
        assert verify_routes(topo) == []

    def test_verify_routes_reports_missing_entry(self, sim):
        topo = build_line(sim, 3)
        install_shortest_path_routes(topo)
        topo.switches()[0].forwarding_table.pop("h2")
        problems = verify_routes(topo)
        assert any("no route to h2" in p for p in problems)

    def test_verify_routes_reports_loop(self, sim):
        topo = build_line(sim, 3)
        install_shortest_path_routes(topo)
        # Point sw1's route for h2 back toward sw0: creates a loop.
        sw0_port = next(
            port.index for port in topo.devices["sw1"].ports
            if port.peer is not None and port.peer.device.name == "sw0"
        )
        topo.devices["sw1"].install_route("h2", sw0_port)
        problems = verify_routes(topo)
        assert any("loop" in p for p in problems)
