"""Per-event-callback wall-time attribution."""

import pytest

from repro.obs import Profiler, callback_name, hotspot_table
from repro.simcore import Simulator


class Component:
    def tick(self):
        pass


class TestCallbackName:
    def test_bound_method(self):
        assert callback_name(Component().tick) == "Component.tick"

    def test_closure_lambda(self):
        def outer():
            return lambda: None

        assert callback_name(outer()) == (
            "TestCallbackName.test_closure_lambda.<locals>"
            ".outer.<locals>.<lambda>"
        )


class TestProfiler:
    def test_aggregates_by_name(self):
        profiler = Profiler()
        component = Component()
        for _ in range(3):
            profiler.run_event(component.tick)
        (spot,) = profiler.hotspots()
        assert spot.name == "Component.tick"
        assert spot.calls == 3
        assert spot.total_ns > 0
        assert spot.max_ns <= spot.total_ns
        assert spot.mean_ns == pytest.approx(spot.total_ns / 3)

    def test_charges_time_even_when_callback_raises(self):
        profiler = Profiler()

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            profiler.run_event(boom)
        (spot,) = profiler.hotspots()
        assert spot.calls == 1

    def test_attach_routes_simulator_events(self):
        profiler = Profiler()
        sim = Simulator()
        profiler.attach(sim)
        component = Component()
        sim.schedule(component.tick, after=1)
        sim.schedule(component.tick, after=2)
        sim.run()
        (spot,) = profiler.hotspots()
        assert spot.calls == 2

    def test_one_argument_events_reach_the_callback(self):
        profiler = Profiler()
        sim = Simulator()
        profiler.attach(sim)
        seen = []
        sim.schedule(seen.append, "step", after=1)
        sim.schedule(seen.append, "run", after=2)
        assert sim.step()  # step() and the instrumented run loop
        sim.run()
        assert seen == ["step", "run"]
        (spot,) = profiler.hotspots()
        assert (spot.name, spot.calls) == ("list.append", 2)

    def test_hop_path_hotspots_name_bound_methods(self):
        from repro.net import Topology

        profiler = Profiler()
        sim = Simulator()
        profiler.attach(sim)
        topo = Topology(sim)
        h0, h1 = topo.add_host("h0"), topo.add_host("h1")
        sw = topo.add_switch("sw")
        topo.connect(h0, sw)
        topo.connect(sw, h1)
        sw.install_route("h1", 1)
        h0.send("h1", payload_bytes=20)
        sim.run()
        names = {spot.name: spot.calls for spot in profiler.hotspots()}
        # One delivery per link and no wakes on an idle path: no closures.
        assert names == {"Port.deliver": 2}

    def test_unattached_simulator_pays_nothing(self):
        sim = Simulator()
        assert sim._profiler is None

    def test_table_and_rows(self):
        profiler = Profiler()
        profiler.run_event(Component().tick)
        rows = profiler.as_rows()
        assert rows[0]["name"] == "Component.tick"
        table = profiler.to_table()
        assert "Component.tick" in table
        assert "share" in table
        # manifest rows render back through the module-level helper
        assert "Component.tick" in hotspot_table(rows)

    def test_empty_profile_renders_placeholder(self):
        assert Profiler().to_table() == "(no profiled events)"
