"""Fault injection, and its agreement with the analytic availability model."""

import pytest

from repro.core import (
    ComponentClass,
    FaultInjector,
    FaultTarget,
    consolidated_vplc_plant,
)
from repro.core.availability_analysis import DC_SERVER, VIRTUALIZATION_STACK
from repro.net import Topology
from repro.simcore import Simulator, SEC
from repro.simcore.units import HOUR


def flaky_component(mtbf_s=50.0, mttr_s=50.0):
    """A very unreliable component so short runs gather statistics."""
    return ComponentClass("flaky", mtbf_s=mtbf_s, mttr_s=mttr_s)


class TestBookkeeping:
    def test_single_component_downtime_tracked(self):
        sim = Simulator(seed=1)
        injector = FaultInjector(sim, cells=1)
        state = {"up": True}
        injector.register(
            FaultTarget(
                name="x",
                component_class=flaky_component(),
                fail=lambda: state.update(up=False),
                repair=lambda: state.update(up=True),
                affected_cells=(0,),
            )
        )
        injector.start()
        horizon = 2_000 * SEC
        sim.run(until=horizon)
        availability = injector.measured_availability(horizon)[0]
        # MTBF == MTTR: availability must hover around 0.5.
        assert 0.3 < availability < 0.7
        assert injector.failures_injected > 5

    def test_overlapping_failures_counted_once(self):
        sim = Simulator(seed=2)
        injector = FaultInjector(sim, cells=1)
        log = injector.logs[0]
        log.mark_down(100)
        log.mark_down(200)   # second component fails while down
        log.mark_up(300)
        assert log.down_count == 1
        log.mark_up(500)
        assert log.outages == [(100, 500)]

    def test_open_outage_counts_to_horizon(self):
        sim = Simulator(seed=3)
        injector = FaultInjector(sim, cells=1)
        log = injector.logs[0]
        log.mark_down(100)
        assert log.downtime_ns(1_100) == 1_000
        assert log.availability(1_100) == pytest.approx(1 - 1_000 / 1_100)

    def test_time_compression_preserves_availability(self):
        results = []
        for compression in (1.0, 10.0):
            sim = Simulator(seed=4)
            injector = FaultInjector(sim, cells=1, time_compression=compression)
            state = {}
            injector.register(
                FaultTarget(
                    name="x",
                    component_class=ComponentClass("c", 400.0, 100.0),
                    fail=lambda: None,
                    repair=lambda: None,
                    affected_cells=(0,),
                )
            )
            injector.start()
            horizon = 20_000 * SEC
            sim.run(until=horizon)
            results.append(injector.measured_availability(horizon)[0])
        # Both should approximate A = 400/500 = 0.8.
        for value in results:
            assert abs(value - 0.8) < 0.08

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FaultInjector(sim, cells=0)
        with pytest.raises(ValueError):
            FaultInjector(sim, cells=1, time_compression=0)
        injector = FaultInjector(sim, cells=1)
        with pytest.raises(ValueError):
            injector.register(
                FaultTarget("x", flaky_component(), lambda: None,
                            lambda: None, affected_cells=(5,))
            )


class TestLinkFaults:
    def test_registered_link_actually_fails_and_recovers(self):
        sim = Simulator(seed=5)
        topo = Topology(sim)
        a, b = topo.add_host("a"), topo.add_host("b")
        link = topo.connect(a, b)
        injector = FaultInjector(sim, cells=1, time_compression=1.0)
        injector.register_link(
            link, flaky_component(mtbf_s=10.0, mttr_s=10.0),
            affected_cells=(0,),
        )
        injector.start()
        states = []

        def sample_link_state():
            while True:
                states.append(link.up)
                yield 1 * SEC

        sim.process(sample_link_state())
        sim.run(until=200 * SEC)
        assert True in states and False in states


class TestAnalyticAgreement:
    def test_simulation_confirms_consolidation_analysis(self):
        """The E8 validation: measured availability of a consolidated
        plant matches the analytic chain within statistical tolerance."""
        plant = consolidated_vplc_plant(cells=4)
        sim = Simulator(seed=7)
        # Compress months-scale MTBFs into a tractable run while keeping
        # the availability ratio intact.
        injector = FaultInjector(sim, cells=4, time_compression=50_000.0)
        all_cells = tuple(range(4))
        # Shared components take all cells down together; the per-cell
        # industrial switch is modeled for cell 0 only (others symmetric).
        for component in plant.chain.shared:
            injector.register(
                FaultTarget(
                    name=component.name,
                    component_class=component,
                    fail=lambda: None,
                    repair=lambda: None,
                    affected_cells=all_cells,
                )
            )
        for component in plant.chain.private:
            injector.register(
                FaultTarget(
                    name=component.name,
                    component_class=component,
                    fail=lambda: None,
                    repair=lambda: None,
                    affected_cells=(0,),
                )
            )
        injector.start()
        horizon = 3_000 * SEC
        sim.run(until=horizon)
        measured = injector.measured_availability(horizon)[0]
        predicted = plant.cell_availability()
        # Exponential sampling noise: agree within half a percent.
        assert measured == pytest.approx(predicted, abs=5e-3)
        # Blast radius: every shared outage hit all four cells, so the
        # cell-outage event count is ~4x the failure count of shared
        # components alone.
        assert injector.simultaneous_outage_events() >= (
            3 * injector.failures_injected / 2
        )
