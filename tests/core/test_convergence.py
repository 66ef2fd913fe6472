"""The converged IT/OT factory facade."""

import pytest

from repro.core import ConvergedFactory, FactoryConfig, PROCESS_AUTOMATION
from repro.core.requirements import MOTION_CONTROL
from repro.plc import HARDWARE_PLC
from repro.simcore import Simulator, MS, SEC
from tests.net.route_oracle import verify_routes


def build(cells=2, devices=2, **kwargs):
    sim = Simulator(seed=4)
    config = FactoryConfig(cells=cells, devices_per_cell=devices, **kwargs)
    return sim, ConvergedFactory(sim, config)


class TestConstruction:
    def test_shape(self):
        sim, factory = build(cells=3, devices=2)
        assert len(factory.cells) == 3
        assert len(factory.devices()) == 6
        names = set(factory.topo.devices)
        assert {"vplc0", "vplc1", "vplc2"} <= names
        assert {"cell0", "cell1", "cell2"} <= names

    def test_routes_clean(self):
        sim, factory = build(cells=4, devices=1)
        assert verify_routes(factory.topo) == []

    def test_leaves_scale_with_cells(self):
        sim, factory = build(cells=5, devices=1)
        leaves = [n for n in factory.topo.devices if n.startswith("leaf")]
        assert len(leaves) == 2  # 5 cells at 4 vPLCs/leaf

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FactoryConfig(cells=0)


class TestOperation:
    def test_all_cells_reach_running(self):
        sim, factory = build()
        factory.start()
        sim.run(until=1 * SEC)
        assert factory.all_running()

    def test_control_loop_closes_over_the_fabric(self):
        sim, factory = build()
        factory.start()
        sim.run(until=2 * SEC)
        # The default passthrough program echoes each device's counter.
        for device in factory.devices():
            assert device.outputs.get("echo", 0) > 0

    def test_cell_failure_is_contained(self):
        sim, factory = build(cells=3, devices=1)
        factory.start()
        sim.run(until=1 * SEC)
        factory.cells[0].vplc.crash()
        sim.run(until=2 * SEC)
        # Cell 0's device fails safe; the other cells keep running.
        assert factory.cells[0].devices[0].fail_safe
        assert factory.cells[1].vplc.all_running
        assert factory.cells[2].vplc.all_running

    def test_backhaul_failure_only_hits_its_cell(self):
        sim, factory = build(cells=2, devices=1)
        factory.start()
        sim.run(until=1 * SEC)
        link = factory.topo.link_between("cell0", "leaf0")
        link.set_down()
        sim.run(until=2 * SEC)
        assert factory.cells[0].devices[0].fail_safe
        assert not factory.cells[1].devices[0].fail_safe


class TestCompliance:
    def test_vplc_meets_process_automation(self):
        sim, factory = build(cells=2, devices=1, cycle_ns=10 * MS)
        factory.start()
        sim.run(until=3 * SEC)
        results = factory.timing_compliance(PROCESS_AUTOMATION)
        assert results
        assert all(result.passed for result in results.values())

    def test_vplc_fails_motion_control(self):
        # The Section 2.1 headline: virtualization stacks cannot deliver
        # 1 us jitter.
        sim, factory = build(cells=1, devices=1, cycle_ns=2 * MS)
        factory.start()
        sim.run(until=3 * SEC)
        results = factory.timing_compliance(MOTION_CONTROL)
        assert results
        assert not any(result.passed for result in results.values())

    def test_hardware_platform_improves_compliance(self):
        sim = Simulator(seed=4)
        config = FactoryConfig(
            cells=1, devices_per_cell=1, cycle_ns=2 * MS,
            platform=HARDWARE_PLC,
        )
        factory = ConvergedFactory(sim, config)
        factory.start()
        sim.run(until=3 * SEC)
        vplc_jitter = None
        for result in factory.timing_compliance(MOTION_CONTROL).values():
            vplc_jitter = result.details["max_abs_jitter_ns"]
        # Hardware still pays network path noise here, but is far tighter
        # than the vPLC default (see test above): single-digit us.
        assert vplc_jitter is not None
        assert vplc_jitter < 10_000
