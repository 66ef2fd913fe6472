"""The in-band telemetry plane: ring samplers and flight recorder.

Three layers of guarantees:

- unit behavior of :class:`RingSampler` (bounded, deterministic
  decimation) and :class:`FlightRecorder`;
- wiring: networks built inside ``obs.capture(telemetry=...)`` attach
  probes, networks built outside attach ``None`` and stay on the fast
  path;
- determinism: simulation results are bit-identical with telemetry on or
  off, and telemetry output is byte-stable across repeated runs.
"""

import json

import pytest

from repro import obs
from repro.net import Topology, TrafficClass
from repro.obs.runtime import NULL_TELEMETRY
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    FlightRecorder,
    RingSampler,
    TelemetryHub,
    _series_key,
    load_snapshot,
    snapshot_paths,
)
from repro.simcore import Simulator
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
        assert link._hub is None
        assert all(p._tel is None for p in host.ports + sw.ports)

    def test_null_hub_is_disabled_and_probe_free(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.port_probe(None) is None

    def test_capture_installs_probes_and_collects(self):
        arrivals, hub = run_line(telemetry=TelemetryHub())
        assert len(arrivals) == 50
        # The burst's first frame goes straight onto the idle wire; the
        # other 49 queue behind it, the last at depth 49.
        depth = hub.samplers[_series_key("net.queue.depth", {"port": "a[0]"})]
        assert (depth.observed, depth.last) == (49, (0, 49))
        busy = hub.samplers[_series_key("net.port.busy_ns", {"port": "sw[1]"})]
        assert busy.observed == 50  # one sample per forwarded frame

    def test_telemetry_does_not_perturb_the_simulation(self):
        plain, _ = run_line(telemetry=None)
        observed, _ = run_line(telemetry=TelemetryHub())
        assert plain == observed


class TestDeterminism:
    def canonical(self, hub):
        return json.dumps(
            hub.snapshot(), sort_keys=True, separators=(",", ":")
        )

    def test_snapshot_is_byte_stable_across_runs(self):
        _, hub_a = run_line(telemetry=TelemetryHub(), seed=1)
        _, hub_b = run_line(telemetry=TelemetryHub(), seed=1)
        assert self.canonical(hub_a) == self.canonical(hub_b)

    def test_simulator_and_reference_loop_agree_bit_for_bit(self):
        # The kernel oracle extends to the telemetry plane: ring contents
        # match the reference loop over EventQueue exactly.
        _, heap_hub = run_line(telemetry=TelemetryHub())
        _, reference_hub = run_line(
            telemetry=TelemetryHub(), engine=ReferenceSimulator
        )
        assert self.canonical(heap_hub) == self.canonical(reference_hub)

    def test_summary_shape(self):
        _, hub = run_line(telemetry=TelemetryHub())
        summary = hub.summary(sim_time_ns=1_000_000)
        assert summary["schema"] == TELEMETRY_SCHEMA
        assert summary["top_queues"], "congested queues should surface"
        assert summary["links"]
        link = summary["links"][0]
        assert {"port", "busy_ns", "tx_bytes", "utilization"} <= set(link)


class TestPersistence:
    def test_snapshot_round_trip_and_discovery(self, tmp_path):
        _, hub = run_line(telemetry=TelemetryHub())
        path = tmp_path / "job.telemetry.json"
        written = hub.write_snapshot(path)
        assert load_snapshot(path) == written
        assert snapshot_paths(tmp_path) == [path]
        assert snapshot_paths(path) == [path]
        with pytest.raises(FileNotFoundError):
            snapshot_paths(tmp_path / "missing")
