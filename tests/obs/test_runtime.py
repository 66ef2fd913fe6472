"""Scoped activation: capture(), nesting, null fallbacks, wiring."""

from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    capture,
    enabled,
    get_registry,
    get_tracer,
)
from repro.simcore import Simulator


class TestDefaults:
    def test_disabled_outside_any_capture(self):
        assert not enabled()
        assert get_registry() is NULL_REGISTRY
        assert get_tracer() is NULL_TRACER


class TestCapture:
    def test_installs_and_restores(self):
        with capture() as cap:
            assert enabled()
            assert get_registry() is cap.registry
            assert get_tracer() is cap.tracer
        assert not enabled()
        assert get_registry() is NULL_REGISTRY

    def test_nesting_innermost_wins(self):
        with capture() as outer:
            with capture() as inner:
                assert get_registry() is inner.registry
            assert get_registry() is outer.registry

    def test_restores_on_exception(self):
        try:
            with capture():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not enabled()

    def test_facets_can_be_disabled(self):
        with capture(metrics=False) as cap:
            assert get_registry() is NULL_REGISTRY
            assert get_tracer() is cap.tracer
        with capture(tracing=False):
            assert get_tracer() is NULL_TRACER

    def test_explicit_instances_accumulate(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with capture(registry=registry, tracer=tracer):
            get_registry().counter("c").inc()
        with capture(registry=registry, tracer=tracer):
            get_registry().counter("c").inc()
        assert registry.snapshot()["counters"] == {"c": 2}


class TestSimulatorIntegration:
    def test_run_emits_span(self):
        with capture() as cap:
            sim = Simulator()
            sim.schedule(lambda: None, after=5)
            sim.run()
        spans = [e for e in cap.tracer.events if e.get("name") == "sim.run"]
        assert len(spans) == 1
        assert spans[0]["args"]["end_ns"] == 5
        assert spans[0]["args"]["events"] == 1

    def test_traced_run_until_matches_untraced(self):
        def script(sim, fired):
            for index, at in enumerate((30, 10, 20, 10)):
                sim.schedule(fired.append, index, at=at)

        until = 100
        plain, plain_fired = Simulator(), []
        script(plain, plain_fired)
        plain.run(until=until)
        with capture() as cap:
            traced, traced_fired = Simulator(), []
            script(traced, traced_fired)
            traced.run(until=until)
        assert traced.now == plain.now == until
        assert traced.stats.events_executed == plain.stats.events_executed
        assert traced_fired == plain_fired == [1, 3, 2, 0]
        (span,) = [e for e in cap.tracer.events if e["name"] == "sim.run"]
        assert span["args"]["end_ns"] == until
        assert span["args"]["until_ns"] == until
        assert span["args"]["events"] == 4

    def test_component_metrics_flow_into_capture(self):
        from repro.net import build_star, install_shortest_path_routes
        from repro.simcore import MS

        with capture() as cap:
            sim = Simulator(seed=0)
            topo = build_star(sim, 3)
            install_shortest_path_routes(topo)
            topo.devices["h0"].send("h1", payload_bytes=50)
            sim.run(until=1 * MS)
        snap = cap.registry.snapshot()
        forwarded = snap["counters"].get(
            "net.switch.frames{outcome=forwarded,switch=sw0}"
        )
        assert forwarded == 1
        assert snap["histograms"]["net.port.tx_ns"]["count"] > 0

    def test_same_named_switches_count_apart_and_sum_in_snapshot(self):
        # One capture can build several deployments that reuse device
        # names: each switch reads its own count, the snapshot their sum.
        from repro.net import Topology
        from repro.simcore import MS

        switches = []
        with capture() as cap:
            for frames in (2, 3):
                sim = Simulator(seed=0)
                topo = Topology(sim)
                h0, h1 = topo.add_host("h0"), topo.add_host("h1")
                sw = topo.add_switch("agg")
                topo.connect(h0, sw)
                topo.connect(sw, h1)
                sw.install_route("h1", 1)
                for sequence in range(frames):
                    h0.send("h1", payload_bytes=50, sequence=sequence)
                sim.run(until=1 * MS)
                switches.append(sw)
        assert [sw.forwarded_frames for sw in switches] == [2, 3]
        counters = cap.registry.snapshot()["counters"]
        assert counters["net.switch.frames{outcome=forwarded,switch=agg}"] == 5
        assert counters["net.host.frames{direction=rx,host=h1}"] == 5

