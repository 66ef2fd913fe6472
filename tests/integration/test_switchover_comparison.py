"""Integration: the three Section 4 availability mechanisms compared.

Experiment E7 (DESIGN.md): the same primary-failure scenario under
(a) InstaPLC, (b) a hardware-style redundant pair, (c) a Kubernetes pod
restart.  The paper's ordering must hold:

    InstaPLC (sub-cycle)  <<  hardware pair (50-300 ms)  <<  k8s (0.1-55 s)
"""

import numpy as np
import pytest

from repro.fieldbus import IoDeviceApp
from repro.instaplc import run_fig5
from repro.metrics import OutageLog
from repro.core import INDUSTRIAL_SIX_NINES
from repro.net import build_star
from repro.net.routing import install_shortest_path_routes
from repro.plc import (
    KubernetesFailoverModel,
    PlcRuntime,
    RedundantPlcPair,
    passthrough_program,
)
from repro.simcore import Simulator, MS, SEC

CYCLE = 10 * MS


def device_outage_ns(rx_times, failure_ns):
    stamps = np.asarray(rx_times, dtype=np.int64)
    after = stamps[stamps > failure_ns - SEC]
    gaps = np.diff(after)
    return int(gaps.max())


def run_hw_pair(seed=0):
    sim = Simulator(seed=seed)
    topo = build_star(sim, 3)
    install_shortest_path_routes(topo)
    device = IoDeviceApp(sim, topo.devices["h2"])
    primary = PlcRuntime(
        sim, topo.devices["h0"], passthrough_program({}), cycle_ns=CYCLE,
        name="p",
    )
    secondary = PlcRuntime(
        sim, topo.devices["h1"], passthrough_program({}), cycle_ns=CYCLE,
        name="s",
    )
    primary.assign_device("h2")
    secondary.assign_device("h2")
    pair = RedundantPlcPair(sim, primary, secondary)
    pair.start()
    sim.run(until=1 * SEC)
    pair.inject_primary_failure()
    sim.run(until=10 * SEC)
    return device_outage_ns(device.stats.rx_times_ns, 1 * SEC)


def run_k8s(seed=0):
    sim = Simulator(seed=seed)
    topo = build_star(sim, 2)
    install_shortest_path_routes(topo)
    device = IoDeviceApp(sim, topo.devices["h1"])
    plc = PlcRuntime(
        sim, topo.devices["h0"], passthrough_program({}), cycle_ns=CYCLE,
        name="pod",
    )
    plc.assign_device("h1")
    model = KubernetesFailoverModel(sim, plc)
    model.start()
    sim.run(until=1 * SEC)
    model.inject_primary_failure()
    sim.run(until=120 * SEC)
    return device_outage_ns(device.stats.rx_times_ns, 1 * SEC)


@pytest.fixture(scope="module")
def outages():
    instaplc = run_fig5(
        cycle_ns=CYCLE, duration_ns=4 * SEC, crash_ns=2 * SEC, seed=0
    )
    instaplc_gap = instaplc.max_io_gap_after_ns(1 * SEC)
    return {
        "instaplc": instaplc_gap,
        "hw_pair": run_hw_pair(),
        "k8s": run_k8s(),
    }


class TestOrdering:
    def test_instaplc_fastest(self, outages):
        assert outages["instaplc"] < outages["hw_pair"]
        assert outages["instaplc"] < outages["k8s"]

    def test_hw_pair_beats_k8s(self, outages):
        assert outages["hw_pair"] < outages["k8s"]

    def test_instaplc_within_watchdog(self, outages):
        assert outages["instaplc"] < 3 * CYCLE

    def test_hw_pair_in_paper_band(self, outages):
        # Detection + takeover + reconnect: tens to hundreds of ms.
        assert 50 * MS < outages["hw_pair"] < 600 * MS

    def test_k8s_beyond_hw_band(self, outages):
        assert outages["k8s"] > 300 * MS


class TestAvailabilityClasses:
    def test_only_instaplc_meets_six_nines_at_daily_failure_rate(self, outages):
        # Assume one controller failure per day; convert each mechanism's
        # outage into an availability figure.
        day = 24 * 3600.0
        verdicts = {}
        for name, outage_ns in outages.items():
            log = OutageLog(
                observation_s=day, outage_durations_s=(outage_ns / 1e9,)
            )
            verdicts[name] = INDUSTRIAL_SIX_NINES.admits(log.availability)
        assert verdicts["instaplc"]
        assert not verdicts["k8s"]
