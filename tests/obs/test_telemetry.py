"""The in-band telemetry plane: rings, postcards, flight recorder.

Three layers of guarantees:

- unit behavior of :class:`RingSampler` (bounded, deterministic
  decimation), :class:`FlightRecorder`, and the hub's postcard machinery;
- wiring: networks built inside ``obs.capture(telemetry=...)`` attach
  probes, networks built outside attach ``None`` and stay on the fast
  path;
- determinism: simulation results are bit-identical with telemetry on or
  off, and telemetry output is byte-stable across repeated runs.
"""

import json

import pytest

from repro import obs
from repro.net import (
    Host,
    Link,
    Packet,
    StrictPriorityQueue,
    Switch,
    Topology,
    TrafficClass,
)
from repro.obs.runtime import NULL_TELEMETRY
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    FlightRecorder,
    RingSampler,
    TelemetryHub,
    _series_key,
    load_postcards_jsonl,
    load_snapshot,
    snapshot_paths,
    summarize_postcards,
)
from repro.simcore import Simulator
from repro.tsn import TimeAwareShaper, protected_window_gcl
from tests.simcore.reference_loop import ReferenceSimulator


class TestRingSampler:
    def test_capacity_must_be_even_and_at_least_two(self):
        with pytest.raises(ValueError):
            RingSampler("x", capacity=1)
        with pytest.raises(ValueError):
            RingSampler("x", capacity=7)

    def test_records_everything_under_capacity(self):
        ring = RingSampler("x", capacity=8)
        for t in range(5):
            ring.record(t, t * 10)
        assert ring.snapshot()["samples"] == [[t, t * 10] for t in range(5)]
        assert ring.stride == 1
        assert ring.decimations == 0

    def test_overflow_decimates_and_doubles_stride(self):
        ring = RingSampler("x", capacity=4)
        for t in range(9):
            ring.record(t, t)
        # After decimation the ring keeps every other retained sample and
        # admits only stride-aligned observations from then on.
        snap = ring.snapshot()
        assert len(snap["samples"]) <= 4
        assert ring.stride > 1
        assert ring.decimations >= 1
        assert ring.observed == 9
        # Retained timestamps stay sorted and are a subsequence of input.
        times = [t for t, _ in snap["samples"]]
        assert times == sorted(times)
        assert set(times) <= set(range(9))

    def test_decimation_is_deterministic(self):
        def run():
            ring = RingSampler("x", capacity=8)
            for t in range(1000):
                ring.record(t, t * 3)
            return ring.snapshot()

        assert run() == run()

    def test_identical_timestamps_are_preserved(self):
        # Many samples at one instant.
        ring = RingSampler("x", capacity=4)
        for _ in range(12):
            ring.record(7, 1)
        snap = ring.snapshot()
        assert all(t == 7 for t, _ in snap["samples"])
        assert ring.observed == 12

    def test_series_key_sorts_labels(self):
        assert _series_key("a", {"z": 1, "b": 2}) == "a{b=2,z=1}"
        assert _series_key("a", {}) == "a"


class TestFlightRecorder:
    def test_per_component_rings_trim_oldest(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.note("lnk", i, "link.down", attempt=i)
        events = rec.snapshot("trim-check")["components"]["lnk"]
        assert [e["attempt"] for e in events] == [2, 3, 4]
        assert rec.events == 5

    def test_snapshot_freezes_current_state(self):
        rec = FlightRecorder()
        rec.note("a", 10, "x")
        snap = rec.snapshot("chaos.fault:a", t_ns=10)
        rec.note("a", 20, "y")
        assert snap["trigger"] == "chaos.fault:a"
        assert len(snap["components"]["a"]) == 1

    def test_snapshot_budget_is_bounded(self):
        rec = FlightRecorder(max_snapshots=2)
        assert rec.snapshot("one") is not None
        assert rec.snapshot("two") is not None
        assert rec.snapshot("three") is None
        assert rec.dropped_snapshots == 1


class TestPostcardSampling:
    def _packet(self, sim, **overrides):
        from repro.net.packet import Packet

        fields = dict(
            src="a", dst="b", payload_bytes=64,
            traffic_class=TrafficClass.BEST_EFFORT, flow_id="f",
            payload={}, created_ns=sim.now, sequence=1,
        )
        fields.update(overrides)
        return Packet(**fields)

    def test_interval_one_samples_everything(self):
        sim = Simulator()
        hub = TelemetryHub(interval=1)
        assert hub.sampled(self._packet(sim))

    def test_decision_is_deterministic_and_seed_dependent(self):
        sim = Simulator()
        hub_a = TelemetryHub(interval=4, seed=0)
        hub_b = TelemetryHub(interval=4, seed=0)
        packets = [self._packet(sim, sequence=i) for i in range(200)]
        decisions_a = [hub_a.sampled(p) for p in packets]
        decisions_b = [hub_b.sampled(p) for p in packets]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_begin_stamp_finish_builds_hops(self):
        sim = Simulator()
        hub = TelemetryHub(interval=1)
        packet = self._packet(sim)
        hub.begin_postcard(packet, 100)
        hub.stamp_egress(packet, "a[0]", 150, queue_depth=2)
        hub.stamp_ingress(packet, "sw", 200)
        hub.stamp_egress(packet, "sw[1]", 260, queue_depth=0)
        hub.finish_postcard(packet, "b", 300)
        (card,) = hub.postcards
        assert card["schema"] == TELEMETRY_SCHEMA
        assert card["latency_ns"] == 200
        assert [h["dev"] for h in card["hops"]] == ["a", "sw"]
        assert card["hops"][1]["hop_ns"] == 60
        assert not hub._inflight

    def test_stale_draft_is_discarded_on_pool_recycling(self):
        sim = Simulator()
        hub = TelemetryHub(interval=1)
        packet = self._packet(sim)
        hub.begin_postcard(packet, 0)
        # A dead packet's id() can be reused by a new packet: model that
        # as the same object carrying a new packet_id.
        packet.packet_id += 1_000_000
        hub.finish_postcard(packet, "b", 10)
        assert hub.postcards == []

    def test_inflight_is_bounded_with_oldest_first_eviction(self):
        sim = Simulator()
        hub = TelemetryHub(interval=1, max_inflight=2)
        packets = [self._packet(sim, sequence=i) for i in range(3)]
        for p in packets:
            hub.begin_postcard(p, 0)
        assert len(hub._inflight) == 2
        assert hub.inflight_evicted == 1
        hub.finish_postcard(packets[0], "b", 5)  # evicted: no postcard
        assert hub.postcards == []

    def test_transfer_follows_frame_copies(self):
        # P4 deparse/replication forwards copies; the draft must follow.
        sim = Simulator()
        hub = TelemetryHub(interval=1)
        original = self._packet(sim)
        hub.begin_postcard(original, 0)
        clone = original.copy_for_replication()
        hub.transfer(original, clone)
        hub.finish_postcard(original, "b", 5)
        assert hub.postcards == []  # original no longer carries the draft
        hub.finish_postcard(clone, "b", 9)
        (card,) = hub.postcards
        assert card["delivered_ns"] == 9

    def test_postcard_cap_drops_not_grows(self):
        sim = Simulator()
        hub = TelemetryHub(interval=1, max_postcards=1)
        for i in range(3):
            p = self._packet(sim, sequence=i)
            hub.begin_postcard(p, 0)
            hub.finish_postcard(p, "b", 1)
        assert len(hub.postcards) == 1
        assert hub.postcards_dropped == 2


def run_line(telemetry=None, seed=0, engine=Simulator):
    """a -- switch -- b with a burst of traffic; returns (arrivals, hub)."""
    ctx = (
        obs.capture(metrics=False, tracing=False, telemetry=telemetry)
        if telemetry is not None
        else None
    )
    hub = None
    arrivals = []
    if ctx is not None:
        obs_handle = ctx.__enter__()
        hub = obs_handle.telemetry
    try:
        sim = engine(seed=seed)
        topo = Topology(sim)
        a = topo.add_host("a")
        b = topo.add_host("b")
        sw = topo.add_switch("sw")
        topo.connect(a, sw, bandwidth_bps=1e9, propagation_delay_ns=100)
        topo.connect(b, sw, bandwidth_bps=1e9, propagation_delay_ns=100)
        from repro.net import install_shortest_path_routes

        install_shortest_path_routes(topo)
        b.on_receive(lambda p: arrivals.append((sim.now, p.sequence)))

        def burst():
            for i in range(50):
                a.send(
                    "b", payload_bytes=200, flow_id="f", sequence=i,
                    traffic_class=TrafficClass.CYCLIC_RT,
                )

        sim.schedule(burst, after=0)
        sim.run()
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)
    return arrivals, hub


class TestWiring:
    def test_components_built_outside_capture_have_no_probes(self):
        sim = Simulator()
        topo = Topology(sim)
        host = topo.add_host("h")
        sw = topo.add_switch("s")
        link = topo.connect(host, sw)
        assert host._hub is None
        assert sw._hub is None
        assert link._hub is None
        assert all(p._tel is None for p in host.ports + sw.ports)

    def test_null_hub_is_disabled_and_probe_free(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.port_probe(None) is None
        assert NULL_TELEMETRY.shaper_probe(None) is None

    def test_shaper_series_record_the_shapers_own_counts(self):
        with obs.capture(
            metrics=False, tracing=False, telemetry=TelemetryHub(interval=1)
        ) as handle:
            # A 1 us RT window fits no 1400 B frame at 1 Gbit/s.
            shaper = TimeAwareShaper(protected_window_gcl(1_000_000, 1_000))
            queue = StrictPriorityQueue()
            queue.enqueue(Packet(
                src="a", dst="b", payload_bytes=1400,
                traffic_class=TrafficClass.CYCLIC_RT,
            ))
            for now_ns in (0, 500, 2_000):
                shaper.select(now_ns, queue, 1e9)
        rings = handle.telemetry.samplers
        guard = rings[_series_key(
            "tsn.shaper.blocks", {"shaper": "shaper0", "reason": "guard_band"}
        )]
        gate = rings[_series_key(
            "tsn.shaper.blocks", {"shaper": "shaper0", "reason": "gate_closed"}
        )]
        assert (shaper.guard_band_blocks, shaper.gate_closed_blocks) == (2, 1)
        assert guard.samples == [(0, 1), (500, 2)]
        assert gate.samples == [(2_000, 1)]

    def test_capture_installs_probes_and_collects(self):
        arrivals, hub = run_line(telemetry=TelemetryHub(interval=1))
        assert len(arrivals) == 50
        assert len(hub.postcards) == 50
        assert hub.samplers  # queue depth / busy rings exist
        card = hub.postcards[0]
        assert [h["dev"] for h in card["hops"]] == ["a", "sw"]
        assert card["delivered_to"] == "b"

    def test_telemetry_does_not_perturb_the_simulation(self):
        plain, _ = run_line(telemetry=None)
        observed, _ = run_line(telemetry=TelemetryHub(interval=1))
        assert plain == observed


class TestDeterminism:
    def canonical(self, hub):
        return json.dumps(
            hub.snapshot(), sort_keys=True, separators=(",", ":")
        )

    def test_snapshot_is_byte_stable_across_runs(self):
        _, hub_a = run_line(telemetry=TelemetryHub(interval=4, seed=1))
        _, hub_b = run_line(telemetry=TelemetryHub(interval=4, seed=1))
        assert self.canonical(hub_a) == self.canonical(hub_b)

    def test_simulator_and_reference_loop_agree_bit_for_bit(self):
        # The kernel oracle extends to the telemetry plane: ring contents
        # and postcards match the reference loop over EventQueue exactly.
        _, heap_hub = run_line(telemetry=TelemetryHub(interval=4))
        _, reference_hub = run_line(
            telemetry=TelemetryHub(interval=4), engine=ReferenceSimulator
        )
        assert self.canonical(heap_hub) == self.canonical(reference_hub)
        assert heap_hub.postcards == reference_hub.postcards

    def test_summary_shape(self):
        _, hub = run_line(telemetry=TelemetryHub(interval=1))
        summary = hub.summary(sim_time_ns=1_000_000)
        assert summary["postcards"] == 50
        assert summary["top_queues"], "congested queues should surface"
        assert summary["links"]
        link = summary["links"][0]
        assert {"port", "busy_ns", "tx_bytes", "utilization"} <= set(link)


class TestPersistence:
    def test_postcards_jsonl_round_trip(self, tmp_path):
        _, hub = run_line(telemetry=TelemetryHub(interval=1))
        path = tmp_path / "cards.postcards.jsonl"
        count = hub.write_postcards_jsonl(path)
        assert count == 50
        assert load_postcards_jsonl(path) == hub.postcards

    def test_snapshot_round_trip_and_discovery(self, tmp_path):
        _, hub = run_line(telemetry=TelemetryHub(interval=1))
        path = tmp_path / "job.telemetry.json"
        written = hub.write_snapshot(path)
        assert load_snapshot(path) == written
        assert snapshot_paths(tmp_path) == [path]
        assert snapshot_paths(path) == [path]
        with pytest.raises(FileNotFoundError):
            snapshot_paths(tmp_path / "missing")

    def test_summarize_postcards_groups_by_flow(self):
        _, hub = run_line(telemetry=TelemetryHub(interval=1))
        summary = summarize_postcards(hub.postcards)
        assert summary["f"]["postcards"] == 50
        assert summary["f"]["max_latency_ns"] > 0
        assert summary["f"]["total_latency_ns"] >= summary["f"]["max_latency_ns"]
