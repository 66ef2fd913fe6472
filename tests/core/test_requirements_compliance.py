"""Section 2 requirements and compliance checks."""

import pytest

from repro.core import (
    CYCLIC_RT_CLASS,
    DATACENTER_TYPICAL,
    INDUSTRIAL_SIX_NINES,
    ISOCHRONOUS_CLASS,
    MACHINE_TOOLS,
    MOTION_CONTROL,
    PROCESS_AUTOMATION,
    check_timing,
)
from repro.metrics import OutageLog
from repro.simcore.units import MS, US


class TestPaperNumbers:
    def test_motion_control_constants(self):
        # "latencies as low as 250 us and jitter less than 1 us".
        assert MOTION_CONTROL.max_latency_ns == 250 * US
        assert MOTION_CONTROL.max_jitter_ns == 1 * US

    def test_machine_tools_cycle(self):
        # "cycle times as low as 500 us".
        assert MACHINE_TOOLS.cycle_ns == 500 * US

    def test_process_automation_band(self):
        # "10 ms to 100 ms".
        assert PROCESS_AUTOMATION.cycle_ns == 10 * MS
        assert PROCESS_AUTOMATION.max_latency_ns == 100 * MS

    def test_six_nines_budget(self):
        # "downtime of less than 31.5 s per year".
        assert INDUSTRIAL_SIX_NINES.downtime_budget_s_per_year == pytest.approx(
            31.536, rel=1e-3
        )

    def test_datacenter_class_is_weaker(self):
        assert (
            DATACENTER_TYPICAL.availability < INDUSTRIAL_SIX_NINES.availability
        )

    def test_traffic_classes_from_tr22804(self):
        # "< 2 ms with 20-50 B" and "1-10 ms with 40-250 B".
        assert ISOCHRONOUS_CLASS.admits(1 * MS, 30)
        assert not ISOCHRONOUS_CLASS.admits(5 * MS, 30)
        assert not ISOCHRONOUS_CLASS.admits(1 * MS, 100)
        assert CYCLIC_RT_CLASS.admits(5 * MS, 100)
        assert not CYCLIC_RT_CLASS.admits(20 * MS, 100)


class TestTimingCompliance:
    PERIOD = 10 * MS

    def arrivals(self, deviations):
        times = [0]
        for deviation in deviations:
            times.append(times[-1] + self.PERIOD + deviation)
        return times

    def test_clean_traffic_passes(self):
        result = check_timing(
            PROCESS_AUTOMATION,
            self.arrivals([0] * 50),
            nominal_period_ns=self.PERIOD,
        )
        assert result.passed
        assert result.violations == ()
        assert bool(result)

    def test_excess_jitter_fails_with_reason(self):
        result = check_timing(
            PROCESS_AUTOMATION,
            self.arrivals([0, 2 * MS, 0]),
            nominal_period_ns=self.PERIOD,
        )
        assert not result.passed
        assert any("worst-case jitter" in v for v in result.violations)

    def test_watchdog_gap_fails(self):
        times = [0, self.PERIOD, 6 * self.PERIOD, 7 * self.PERIOD]
        result = check_timing(
            PROCESS_AUTOMATION, times, nominal_period_ns=self.PERIOD
        )
        assert not result.passed
        assert any("watchdog" in v for v in result.violations)

    def test_consecutive_jitter_run_detected(self):
        deviations = [2 * MS] * 4 + [0] * 10
        result = check_timing(
            PROCESS_AUTOMATION,
            self.arrivals(deviations),
            nominal_period_ns=self.PERIOD,
            consecutive_jitter_threshold_ns=1 * MS,
        )
        assert any("consecutive" in v for v in result.violations)
        assert result.details["consecutive_jitter_run"] >= 3

    def test_details_always_populated(self):
        result = check_timing(
            PROCESS_AUTOMATION, self.arrivals([100] * 20),
            nominal_period_ns=self.PERIOD,
        )
        assert set(result.details) == {
            "max_abs_jitter_ns",
            "mean_abs_jitter_ns",
            "consecutive_jitter_run",
            "watchdog_expirations",
        }


class TestLatencyCompliance:
    def test_pass_and_fail(self):
        assert MOTION_CONTROL.admits_latency_ns(200_000)
        assert MOTION_CONTROL.admits_latency_ns(250 * US)  # bound inclusive
        assert not MOTION_CONTROL.admits_latency_ns(400_000)
        # Jitter is judged the same way, against its own bound.
        assert MOTION_CONTROL.admits_jitter_ns(1 * US)
        assert not MOTION_CONTROL.admits_jitter_ns(1 * US + 1)


class TestAvailabilityCompliance:
    def test_clean_log_passes_six_nines(self):
        log = OutageLog(observation_s=3600.0, outage_durations_s=())
        assert INDUSTRIAL_SIX_NINES.admits(log.availability)

    def test_one_minute_outage_fails_six_nines(self):
        log = OutageLog(observation_s=24 * 3600.0, outage_durations_s=(60.0,))
        assert not INDUSTRIAL_SIX_NINES.admits(log.availability)
        assert log.projected_yearly_downtime_s() > (
            INDUSTRIAL_SIX_NINES.downtime_budget_s_per_year
        )

    def test_same_outage_passes_datacenter_class(self):
        log = OutageLog(observation_s=30 * 24 * 3600.0, outage_durations_s=(60.0,))
        assert DATACENTER_TYPICAL.admits(log.availability)


class TestValidation:
    def test_invalid_timing_requirement(self):
        from repro.core import TimingRequirement

        with pytest.raises(ValueError):
            TimingRequirement("bad", cycle_ns=0, max_latency_ns=1, max_jitter_ns=1)
