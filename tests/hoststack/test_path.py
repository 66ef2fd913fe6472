"""The XDP host path: residence-time composition and the reflector device."""

import numpy as np

from repro.ebpf import build_base, build_ts_rb
from repro.hoststack import DriverModel, XdpHostModel, XdpReflectorHost
from repro.net import Host, Link
from repro.obs import capture
from repro.simcore import Simulator, MS
from tests.hoststack.reference_sampler import driver_ns


def make_model(program=None, flows=1, seed=0):
    return XdpHostModel(
        program=program or build_base(),
        rng=np.random.default_rng(seed),
        active_flows=flows,
    )


class TestXdpHostModel:
    def test_residence_time_positive_and_bounded(self):
        model = make_model()
        samples = [model.residence_ns(64) for _ in range(500)]
        assert min(samples) > 5_000   # fixed PCIe + driver floor
        assert max(samples) < 200_000  # far below a millisecond normally

    def test_ringbuf_program_slower_than_base(self):
        base = np.mean([make_model(build_base(), seed=1).residence_ns(64)
                        for _ in range(300)])
        ringbuf = np.mean([make_model(build_ts_rb(), seed=1).residence_ns(64)
                           for _ in range(300)])
        assert ringbuf > base + 2_000  # the ring-buffer toll

    def test_more_flows_more_variance(self):
        single = make_model(flows=1, seed=2)
        many = make_model(flows=25, seed=2)
        std_single = np.std([single.residence_ns(64) for _ in range(800)])
        std_many = np.std([many.residence_ns(64) for _ in range(800)])
        assert std_many > std_single

    def test_set_active_flows_updates_environment(self):
        model = make_model()
        model.set_active_flows(25)
        assert model.environment.active_flows == 25

    def test_exec_histogram_follows_flow_count(self):
        with capture() as cap:
            model = make_model()
            model.residence_ns(64)
            model.set_active_flows(25)
            model.residence_ns(64)
        histograms = cap.registry.snapshot()["histograms"]
        assert histograms["ebpf.exec_ns{flows=1}"]["count"] == 1
        assert histograms["ebpf.exec_ns{flows=25}"]["count"] == 1

    def test_driver_floor_respected(self):
        driver = DriverModel(rx_fixed_ns=1_000, tx_fixed_ns=2_000, noise_std_ns=0)
        rng = np.random.default_rng(0)
        assert driver_ns(driver, driver.rx_fixed_ns, rng) == 1_000
        assert driver_ns(driver, driver.tx_fixed_ns, rng) == 2_000


class TestXdpReflectorHost:
    def build(self, flows=1):
        sim = Simulator(seed=0)
        sender = Host(sim, "sender")
        reflector = XdpReflectorHost(sim, "reflector", make_model(flows=flows))
        Link(sim, sender.add_port(), reflector.add_port(), 1e9, 100)
        return sim, sender, reflector

    def test_reflects_with_swapped_addresses(self):
        sim, sender, reflector = self.build()
        sender.record_received = True
        sender.on_receive(lambda p: None)
        sender.send("reflector", payload_bytes=50, flow_id="f", sequence=1)
        sim.run(until=1 * MS)
        assert reflector.reflected == 1
        assert len(sender.received) == 1
        reflected = sender.received[0]
        assert reflected.src == "reflector"
        assert reflected.dst == "sender"
        assert reflected.sequence == 1

    def test_single_core_serializes_overlapping_arrivals(self):
        sim, sender, reflector = self.build()
        for seq in range(5):
            sender.send("reflector", payload_bytes=50, sequence=seq)
        sim.run(until=5 * MS)
        assert reflector.reflected == 5
        # Back-to-back arrivals queue behind the busy core.
        assert reflector.queued_frames > 0

    def test_spaced_arrivals_do_not_queue(self):
        sim, sender, reflector = self.build()
        for k in range(3):
            sim.schedule(lambda: sender.send("reflector", payload_bytes=50), after=k * MS)
        sim.run(until=10 * MS)
        assert reflector.queued_frames == 0
