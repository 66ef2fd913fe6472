"""The tap and the Traffic Reflection harness."""

import numpy as np
import pytest

from repro.ebpf import build_base, build_ts_rb, paper_variants
from repro.net import Host, Link
from repro.reflection import (
    Tap,
    run_flow_scaling,
    run_reflection,
    run_variant_sweep,
)
from repro.simcore import Simulator, MS


class TestTap:
    def build(self):
        sim = Simulator()
        a = Host(sim, "a")
        b = Host(sim, "b")
        tap = Tap(sim, "tap")
        Link(sim, a.add_port(), tap.add_port(), 1e9, 100)
        Link(sim, tap.add_port(), b.add_port(), 1e9, 100)
        return sim, a, b, tap

    def test_transparent_passthrough(self):
        sim, a, b, tap = self.build()
        b.record_received = True
        a.send("b", payload_bytes=50, flow_id="f", sequence=1)
        sim.run(until=1 * MS)
        assert len(b.received) == 1

    def test_records_both_directions(self):
        sim, a, b, tap = self.build()
        b.on_receive(lambda p: b.send("a", payload_bytes=50, flow_id="f",
                                      sequence=p.sequence))
        a.send("b", payload_bytes=50, flow_id="f", sequence=7)
        sim.run(until=1 * MS)
        directions = [r.direction for r in tap.records]
        assert directions == [Tap.SIDE_A, Tap.SIDE_B]
        assert all(r.sequence == 7 for r in tap.records)

    def test_timestamps_quantized_to_8ns(self):
        sim, a, b, tap = self.build()
        a.send("b", payload_bytes=50)
        sim.run(until=1 * MS)
        assert all(r.timestamp_ns % 8 == 0 for r in tap.records)

    def test_passthrough_adds_only_configured_latency(self):
        sim, a, b, tap = self.build()
        arrivals = []
        b.on_receive(lambda p: arrivals.append(sim.now))
        a.send("b", payload_bytes=20, flow_id="f")
        sim.run(until=1 * MS)
        # serialization 672 + prop 100 + tap 8 + prop 100 (no re-serialization).
        assert arrivals == [672 + 100 + 8 + 100]


class TestHarness:
    def test_every_cycle_measured(self):
        result = run_reflection(build_base(), flow_count=1, cycles=50)
        assert result.unmatched_frames <= 1
        assert result.delays_us["flow0"].size == 50

    def test_delays_in_expected_band(self):
        result = run_reflection(build_base(), cycles=100)
        cdf = result.delay_cdf()
        # The Figure 4 x-axis: ~10-20 us.
        assert 8.0 < cdf.median < 14.0

    def test_multiple_flows_all_measured(self):
        result = run_reflection(build_base(), flow_count=5, cycles=30)
        assert len(result.delays_us) == 5
        assert all(v.size == 30 for v in result.delays_us.values())

    def test_jitter_samples_have_expected_count(self):
        result = run_reflection(build_base(), flow_count=2, cycles=30)
        assert result.jitter_samples_ns().size == 2 * 29

    def test_deterministic_given_seed(self):
        first = run_reflection(build_base(), cycles=20, seed=9)
        second = run_reflection(build_base(), cycles=20, seed=9)
        assert np.array_equal(
            first.delays_us["flow0"], second.delays_us["flow0"]
        )

    def test_different_seeds_differ(self):
        first = run_reflection(build_base(), cycles=20, seed=1)
        second = run_reflection(build_base(), cycles=20, seed=2)
        assert not np.array_equal(
            first.delays_us["flow0"], second.delays_us["flow0"]
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_reflection(build_base(), flow_count=0)
        with pytest.raises(ValueError):
            run_reflection(build_base(), cycles=1)


class TestPaperClaims:
    """The two Figure 4 claims as tests."""

    def test_ringbuf_variants_form_slower_cluster(self):
        results = run_variant_sweep(paper_variants(), cycles=150)
        medians = {name: r.delay_cdf().median for name, r in results.items()}
        no_rb = [medians["Base"], medians["TS"], medians["TS-TS"], medians["TS-OW"]]
        with_rb = [medians["TS-RB"], medians["TS-D-RB"]]
        assert min(with_rb) > max(no_rb) + 2.0  # clear cluster split (us)

    def test_small_code_changes_shift_the_cdf(self):
        results = run_variant_sweep(paper_variants(), cycles=150)
        base = results["Base"].delay_cdf().median
        ts_ts = results["TS-TS"].delay_cdf().median
        assert ts_ts > base  # two added helper calls are visible

    def test_more_flows_increase_jitter(self):
        scaling = run_flow_scaling(build_base(), [1, 25], cycles=150)
        one = scaling[1].jitter_cdf()
        many = scaling[25].jitter_cdf()
        assert many.quantile(0.9) > one.quantile(0.9)
        assert many.median >= one.median
