"""Flow taxonomy and traffic generators."""

import numpy as np
import pytest

from repro.net import (
    CyclicSender,
    FlowKind,
    FlowSpec,
    PoissonSender,
    TrafficClass,
    Topology,
    classify_flow,
    install_shortest_path_routes,
)
from repro.net.flows import ELEPHANT_MIN_BYTES, KB, MB
from repro.simcore import Simulator, MS, SEC


def linked_pair():
    sim = Simulator(seed=1)
    topo = Topology(sim)
    a, b = topo.add_host("a"), topo.add_host("b")
    topo.connect(a, b)
    install_shortest_path_routes(topo)
    return sim, a, b


class TestTaxonomy:
    def test_mice_flow(self):
        spec = FlowSpec("f", "a", "b", total_bytes=5 * KB)
        assert classify_flow(spec) is FlowKind.MICE

    def test_medium_flow(self):
        spec = FlowSpec("f", "a", "b", total_bytes=MB // 2)
        assert spec.kind is FlowKind.MEDIUM

    def test_elephant_flow(self):
        spec = FlowSpec("f", "a", "b", total_bytes=2 * ELEPHANT_MIN_BYTES)
        assert spec.kind is FlowKind.ELEPHANT

    def test_cyclic_microflow_is_its_own_kind(self):
        # The paper's new flow type: never-ending + cyclic + tiny payload.
        spec = FlowSpec("f", "a", "b", period_ns=2 * MS, payload_bytes=30)
        assert spec.kind is FlowKind.CYCLIC_MICROFLOW
        assert spec.is_never_ending

    def test_unbounded_stream_without_cycle_is_elephant(self):
        spec = FlowSpec("f", "a", "b")
        assert spec.kind is FlowKind.ELEPHANT


class TestCyclicSender:
    def test_exact_cadence_without_jitter(self):
        sim, a, b = linked_pair()
        spec = FlowSpec("f", "a", "b", period_ns=1 * MS, payload_bytes=30)
        sender = CyclicSender(sim, a, spec)
        sender.start()
        sim.run(until=10 * MS)
        # Events at exactly t=until fire, so t=0..10 ms inclusive.
        assert sender.stats.packets_sent == 11
        assert sender.stats.send_times_ns == [k * MS for k in range(11)]

    def test_jitter_does_not_accumulate(self):
        sim, a, b = linked_pair()
        spec = FlowSpec("f", "a", "b", period_ns=1 * MS, payload_bytes=30)
        rng = np.random.default_rng(0)
        sender = CyclicSender(
            sim, a, spec, release_jitter_fn=lambda: int(rng.integers(0, 50_000))
        )
        sender.start()
        sim.run(until=100 * MS)
        times = np.array(sender.stats.send_times_ns)
        offsets = times - np.arange(times.size) * MS
        # Each activation deviates by at most the per-cycle jitter bound.
        assert offsets.min() >= 0
        assert offsets.max() < 50_000

    def test_stop_models_crash(self):
        sim, a, b = linked_pair()
        spec = FlowSpec("f", "a", "b", period_ns=1 * MS, payload_bytes=30)
        sender = CyclicSender(sim, a, spec)
        sender.start()
        sim.run(until=5 * MS)
        sender.stop()
        sim.run(until=20 * MS)
        assert sender.stats.packets_sent == 6  # t=0..5 inclusive

    def test_sequence_numbers_increment(self):
        sim, a, b = linked_pair()
        b.record_received = True
        spec = FlowSpec("f", "a", "b", period_ns=1 * MS, payload_bytes=30)
        CyclicSender(sim, a, spec).start()
        sim.run(until=3 * MS)
        assert [p.sequence for p in b.received] == [1, 2, 3]

    def test_non_cyclic_spec_rejected(self):
        sim, a, b = linked_pair()
        with pytest.raises(ValueError):
            CyclicSender(sim, a, FlowSpec("f", "a", "b", total_bytes=100))

    def test_start_offset(self):
        sim, a, b = linked_pair()
        spec = FlowSpec("f", "a", "b", period_ns=1 * MS, payload_bytes=30)
        sender = CyclicSender(sim, a, spec, start_ns=300_000)
        sender.start()
        sim.run(until=3 * MS)
        assert sender.stats.send_times_ns[0] == 300_000


class TestPoissonSender:
    def test_rate_approximately_met(self):
        sim, a, b = linked_pair()
        spec = FlowSpec("bg", "a", "b", payload_bytes=200)
        sender = PoissonSender(
            sim, a, spec, rate_pps=10_000, rng=sim.streams.stream("poisson")
        )
        sender.start()
        sim.run(until=1 * SEC)
        sender.stop()
        assert 9_000 < sender.stats.packets_sent < 11_000

    def test_interarrivals_are_variable(self):
        sim, a, b = linked_pair()
        spec = FlowSpec("bg", "a", "b", payload_bytes=200)
        sender = PoissonSender(
            sim, a, spec, rate_pps=1_000, rng=sim.streams.stream("poisson")
        )
        sender.start()
        sim.run(until=1 * SEC)
        gaps = np.diff(sender.stats.send_times_ns)
        assert gaps.std() > 0.5 * gaps.mean()  # exponential-ish, CV ~ 1

    def test_invalid_rate_rejected(self):
        sim, a, b = linked_pair()
        with pytest.raises(ValueError):
            PoissonSender(
                sim, a, FlowSpec("f", "a", "b"), rate_pps=0,
                rng=sim.streams.stream("x"),
            )
