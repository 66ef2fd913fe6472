"""Inference serving and the three Figure 6 deployments."""

import numpy as np
import pytest

from repro.mlnet import (
    InferenceServer,
    MlClient,
    OBJECT_IDENTIFICATION,
    build_leaf_spine_deployment,
    build_ml_aware_deployment,
    build_ring_deployment,
    run_deployment,
    run_point,
)
from repro.net import Host, Link
from repro.net.routing import shortest_path
from repro.simcore import Simulator, MS, SEC
from tests.net.route_oracle import verify_routes


def direct_pair():
    sim = Simulator(seed=0)
    client_host = Host(sim, "client")
    server_host = Host(sim, "server")
    Link(sim, client_host.add_port(), server_host.add_port(), 1e9, 500)
    server = InferenceServer(sim, server_host, units=1, service_time_ns=500_000)
    client = MlClient(
        sim, client_host, "server", frame_bytes=30_000, fps=10,
    )
    return sim, client, server


class TestServing:
    def test_frame_round_trip_measured(self):
        sim, client, server = direct_pair()
        client.start()
        sim.run(until=1 * SEC)
        assert client.stats.frames_sent >= 10
        assert client.stats.results_received >= 9
        assert server.stats.frames_completed >= 9

    def test_latency_includes_transfer_and_inference(self):
        sim, client, server = direct_pair()
        client.start()
        sim.run(until=1 * SEC)
        latencies = client.latencies_ms()
        # 30 KB at 1 Gbit/s ~ 0.25 ms + inference 0.5 ms (cv 0.2, so the
        # floor sits near 0.25 + 0.3).
        assert latencies.min() > 0.5
        assert latencies.max() < 5.0

    def test_segmentation_into_mtu_packets(self):
        sim, client, server = direct_pair()
        client.start()
        sim.run(until=150 * MS)
        # 30000 / 1460 = 21 segments per frame.
        assert client.host.tx_count % 21 == 0

    def test_queueing_when_server_overloaded(self):
        sim = Simulator(seed=0)
        client_hosts = [Host(sim, f"c{i}") for i in range(4)]
        server_host = Host(sim, "server")
        switch_sim_links = []
        from repro.net import Switch, Topology
        from repro.net.routing import install_shortest_path_routes

        topo = Topology(sim)
        switch = topo.add_switch("sw")
        for host in client_hosts:
            topo.devices[host.name] = host
            topo.connect(switch, host)
        topo.devices[server_host.name] = server_host
        topo.connect(switch, server_host)
        install_shortest_path_routes(topo)
        # Service slower than aggregate arrivals: queue must build.
        server = InferenceServer(
            sim, server_host, units=1, service_time_ns=30_000_000
        )
        clients = [
            MlClient(sim, host, "server", frame_bytes=10_000, fps=20)
            for host in client_hosts
        ]
        for client in clients:
            client.start()
        sim.run(until=1 * SEC)
        assert server.stats.queue_peak > 1

    def test_invalid_parameters(self):
        sim = Simulator()
        host = Host(sim, "h")
        with pytest.raises(ValueError):
            MlClient(sim, host, "s", frame_bytes=0, fps=10)
        with pytest.raises(ValueError):
            InferenceServer(sim, host, units=0)


class TestDeployments:
    @pytest.mark.parametrize(
        "builder",
        [build_ring_deployment, build_leaf_spine_deployment,
         build_ml_aware_deployment],
    )
    def test_deployment_routes_clean(self, builder):
        sim = Simulator()
        deployment = builder(sim, 32, OBJECT_IDENTIFICATION)
        assert verify_routes(deployment.topo) == []
        assert len(deployment.client_hosts) == 32
        assert all(
            deployment.server_for(c.name) for c in deployment.client_hosts
        )

    def test_ring_scales_switch_count_with_clients(self):
        sim = Simulator()
        small = build_ring_deployment(sim, 32, OBJECT_IDENTIFICATION)
        big = build_ring_deployment(
            Simulator(), 256, OBJECT_IDENTIFICATION
        )
        assert len(big.topo.switches()) > len(small.topo.switches())

    def test_ml_aware_uses_compressed_frames(self):
        sim = Simulator()
        aware = build_ml_aware_deployment(sim, 32, OBJECT_IDENTIFICATION)
        naive = build_ring_deployment(Simulator(), 32, OBJECT_IDENTIFICATION)
        assert aware.frame_bytes < naive.frame_bytes

    def test_ml_aware_servers_local_to_cells(self):
        sim = Simulator()
        deployment = build_ml_aware_deployment(
            sim, 64, OBJECT_IDENTIFICATION, cell_size=32
        )
        # Every client's assigned server sits in the same cell prefix.
        for client in deployment.client_hosts[:8]:
            path = shortest_path(
                deployment.topo, client.name, deployment.server_for(client.name)
            )
            assert len(path) - 1 == 2  # client -> cell switch -> server

    def test_run_deployment_returns_latency_stats(self):
        sim = Simulator(seed=0)
        deployment = build_ml_aware_deployment(sim, 16, OBJECT_IDENTIFICATION)
        mean_ms, p99_ms, count = run_deployment(
            deployment, OBJECT_IDENTIFICATION, sim, duration_ns=300 * MS
        )
        assert 0 < mean_ms <= p99_ms
        assert count > 0

    def test_run_shorter_than_warmup_names_the_deployment(self):
        # Every completion falls inside the 200 ms warm-up, so no client
        # has a measured frame.
        with pytest.raises(RuntimeError, match="no frames completed on ring"):
            run_point(OBJECT_IDENTIFICATION, "ring", 16, duration_ns=100 * MS)
