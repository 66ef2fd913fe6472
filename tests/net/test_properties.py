"""Property-based tests for topologies and routing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Packet,
    StrictPriorityQueue,
    Topology,
    TrafficClass,
    build_leaf_spine,
    build_ring,
    install_shortest_path_routes,
    shortest_path,
)
from repro.net.routing import bfs_distances
from repro.simcore import Simulator
from tests.net.route_oracle import verify_routes


@given(st.integers(3, 12), st.integers(1, 3))
@settings(deadline=None, max_examples=20)
def test_ring_routes_always_loop_free(switches, hosts_per_switch):
    topo = build_ring(Simulator(), switches, hosts_per_switch)
    install_shortest_path_routes(topo)
    assert verify_routes(topo) == []


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
@settings(deadline=None, max_examples=20)
def test_leaf_spine_routes_always_loop_free(leaves, spines, hosts):
    topo = build_leaf_spine(Simulator(), leaves, spines, hosts)
    install_shortest_path_routes(topo)
    assert verify_routes(topo) == []


@given(st.integers(1, 3), st.integers(1, 3))
@settings(deadline=None, max_examples=15)
def test_tree_path_lengths_symmetric(depth, fanout):
    # A balanced switch tree: ``depth`` levels of ``fanout`` children under
    # one root, and one host under each leaf switch.
    topo = Topology(Simulator())
    level = [topo.add_switch("root")]
    for d in range(depth):
        children = []
        for p, parent in enumerate(level):
            for c in range(fanout):
                child = topo.add_switch(f"sw{d}_{p}_{c}")
                topo.connect(parent, child)
                children.append(child)
        level = children
    for i, leaf in enumerate(level):
        topo.connect(leaf, topo.add_host(f"h{i}"))
    hosts = topo.hosts()
    if len(hosts) >= 2:
        a, b = hosts[0].name, hosts[-1].name
        forward = shortest_path(topo, a, b)
        backward = shortest_path(topo, b, a)
        assert len(forward) == len(backward)


@given(st.integers(3, 10))
@settings(deadline=None, max_examples=10)
def test_ring_distance_at_most_half(switches):
    topo = build_ring(Simulator(), switches, hosts_per_switch=0)
    distances = bfs_distances(topo.adjacency(), "sw0")
    assert max(distances.values()) <= switches // 2


@given(
    st.lists(
        st.sampled_from(list(TrafficClass)),
        min_size=1,
        max_size=100,
    )
)
def test_strict_priority_dequeue_order_is_nonincreasing_pcp(classes):
    queue = StrictPriorityQueue()
    for tc in classes:
        queue.enqueue(Packet(src="a", dst="b", payload_bytes=30, traffic_class=tc))
    pcps = []
    while True:
        packet = queue.dequeue()
        if packet is None:
            break
        pcps.append(packet.traffic_class.pcp)
    assert pcps == sorted(pcps, reverse=True)
    assert len(pcps) == len(classes)


@given(st.integers(0, 1500))
def test_frame_size_bounds(payload):
    packet = Packet(src="a", dst="b", payload_bytes=payload)
    assert packet.frame_bytes >= 64
    assert packet.wire_size_bytes == packet.frame_bytes + 20
    assert packet.serialization_time_ns(1e9) >= 672
