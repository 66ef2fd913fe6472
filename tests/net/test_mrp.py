"""Ring redundancy management (MRP-style healing)."""

import numpy as np
import pytest

from repro.fieldbus import ConnectionParams, CyclicConnection, IoDeviceApp
from repro.net import (
    CyclicSender,
    FlowSpec,
    RingRedundancyManager,
    TrafficClass,
    build_ring,
)
from repro.simcore import Simulator, MS, SEC
from tests.net.route_oracle import verify_routes

#: The commissioned path from h0_0 to h5_0 on a six-switch ring: the long
#: way round, through every switch, never the sw0-sw5 standby link.
LONG_WAY = [f"sw{i}" for i in range(6)]


def ring_with_manager(switches=6, seed=0):
    sim = Simulator(seed=seed)
    topo = build_ring(sim, switches, hosts_per_switch=1)
    standby = topo.link_between("sw0", f"sw{switches - 1}")
    manager = RingRedundancyManager(sim, topo, standby_link=standby)
    manager.commission()
    manager.start()
    return sim, topo, manager


def switch_path(topo):
    """The switches that forwarded a frame, in name order.  With one frame
    sent, these are the switches it crossed."""
    return sorted(
        name
        for name, device in topo.devices.items()
        if name.startswith("sw") and device.forwarded_frames
    )


class TestCommissioning:
    def test_routes_valid_and_loop_free(self):
        sim, topo, manager = ring_with_manager()
        assert verify_routes(topo) == []

    def test_standby_link_unused_in_steady_state(self):
        sim, topo, manager = ring_with_manager()
        # Traffic from h0 to h5 would cross the standby if it were
        # active (one hop); commissioned routing must go the long way.
        topo.devices["h0_0"].send("h5_0", payload_bytes=50)
        sim.run(until=2 * MS)
        assert switch_path(topo) == LONG_WAY

    def test_foreign_standby_rejected(self):
        sim = Simulator()
        topo = build_ring(sim, 4)
        other = build_ring(Simulator(), 4)
        with pytest.raises(ValueError):
            RingRedundancyManager(sim, topo, standby_link=other.links[0])


class TestHealing:
    def test_ring_heals_after_link_failure(self):
        sim, topo, manager = ring_with_manager()
        h0, h3 = topo.devices["h0_0"], topo.devices["h3_0"]
        received = []
        h3.on_receive(lambda p: received.append(sim.now))
        spec = FlowSpec(
            "probe", "h0_0", "h3_0", period_ns=5 * MS, payload_bytes=50,
            traffic_class=TrafficClass.CYCLIC_RT,
        )
        CyclicSender(sim, h0, spec).start()
        sim.run(until=500 * MS)
        before = len(received)
        topo.link_between("sw1", "sw2").set_down()
        sim.run(until=2 * SEC)
        after = len(received)
        # Traffic resumed: the standby link now carries the detour.
        assert after > before + 200
        assert len(manager.events) == 1
        assert manager.events[0].kind == "failure"
        assert verify_routes(topo) == []

    def test_recovery_gap_within_mrp_budget(self):
        sim, topo, manager = ring_with_manager()
        h0, h3 = topo.devices["h0_0"], topo.devices["h3_0"]
        arrivals = []
        h3.on_receive(lambda p: arrivals.append(sim.now))
        spec = FlowSpec(
            "probe", "h0_0", "h3_0", period_ns=2 * MS, payload_bytes=50,
            traffic_class=TrafficClass.CYCLIC_RT,
        )
        CyclicSender(sim, h0, spec).start()
        sim.run(until=500 * MS)
        topo.link_between("sw1", "sw2").set_down()
        sim.run(until=2 * SEC)
        gaps = np.diff(np.asarray(arrivals))
        # MRP's default profile guarantees 200 ms; our detection (20 ms
        # supervision + 2 ms LinkChange + 5 ms reconfiguration) is well
        # inside it.
        assert gaps.max() < 200 * MS
        assert gaps.max() > 2 * MS  # there *was* an outage

    def test_repair_reverts_to_standby_blocked(self):
        sim, topo, manager = ring_with_manager()
        broken = topo.link_between("sw1", "sw2")
        broken.set_down()
        sim.run(until=200 * MS)
        broken.set_up()
        sim.run(until=500 * MS)
        kinds = [event.kind for event in manager.events]
        assert kinds == ["failure", "repair"]
        # After revert, the commissioned path shape is back.
        topo.devices["h0_0"].send("h5_0", payload_bytes=50)
        sim.run(until=600 * MS)
        assert switch_path(topo) == LONG_WAY

    def test_fieldbus_relation_survives_ring_failure(self):
        sim, topo, manager = ring_with_manager(seed=5)
        device = IoDeviceApp(sim, topo.devices["h3_0"])
        connection = CyclicConnection(
            sim, topo.devices["h0_0"], "h3_0",
            # Watchdog factor sized for the MRP budget: 10 ms cycles x 20.
            ConnectionParams(cycle_ns=10 * MS, watchdog_factor=20),
        )
        connection.open()
        sim.run(until=500 * MS)
        topo.link_between("sw2", "sw3").set_down()
        sim.run(until=2 * SEC)
        assert device.stats.watchdog_expirations == 0
        assert connection.stats.watchdog_expirations == 0

    def test_second_failure_partitions_until_repair(self):
        sim, topo, manager = ring_with_manager()
        topo.link_between("sw1", "sw2").set_down()
        sim.run(until=200 * MS)
        topo.link_between("sw3", "sw4").set_down()
        sim.run(until=400 * MS)
        # Two failures partition a single ring: some pairs are unreachable,
        # which verify_routes reports as missing entries.
        assert verify_routes(topo) != []
        topo.link_between("sw1", "sw2").set_up()
        sim.run(until=800 * MS)
        assert verify_routes(topo) == []
