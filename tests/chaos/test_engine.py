"""The campaign engine: measurement, verdicts, replay identity.

The analytic-agreement test below is the acceptance contract for every
shipped scenario: measured per-cell availability at the default horizon
must agree with the scenario's steady-state prediction within its
documented tolerance.
"""

import pytest

from repro.chaos import (
    SCENARIOS,
    get_scenario,
    intervals_fingerprint,
    run_campaign,
)


@pytest.fixture(scope="module")
def campaigns():
    """One campaign per shipped scenario at seed 0, shared module-wide."""
    return {
        name: run_campaign(get_scenario(name), seed=0) for name in SCENARIOS
    }


class TestMeasurement:
    def test_result_header_mirrors_the_scenario(self, campaigns):
        scenario = get_scenario("link-flaps")
        result = campaigns["link-flaps"]
        assert result.scenario == "link-flaps"
        assert result.seed == 0
        assert result.cells == scenario.cells
        assert result.horizon_ns == scenario.horizon_ns
        assert result.requirement == scenario.requirement.name
        assert len(result.reports) == scenario.cells

    def test_intervals_are_sorted_disjoint_and_clipped(self, campaigns):
        result = campaigns["correlated"]
        for pairs in result.intervals.values():
            previous_end = 0
            for start, end in pairs:
                assert 0 <= start < end <= result.horizon_ns
                assert start >= previous_end
                previous_end = end

    def test_downtime_matches_intervals(self, campaigns):
        result = campaigns["link-flaps"]
        for report in result.reports:
            total = sum(
                end - start for start, end in result.intervals[report.cell]
            )
            assert report.downtime_ns == total
            assert report.availability == pytest.approx(
                1.0 - total / result.horizon_ns
            )

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_measured_agrees_with_analytic_prediction(self, campaigns, name):
        # The shipped-scenario acceptance criterion: every cell within the
        # documented tolerance of the steady-state prediction.
        result = campaigns[name]
        tolerance = get_scenario(name).tolerance
        for report in result.reports:
            assert report.within_tolerance, (
                f"{name} cell {report.cell}: measured "
                f"{report.availability:.6f} vs predicted "
                f"{report.predicted:.6f} exceeds tolerance {tolerance}"
            )

    def test_verdicts_split_the_taxonomy(self, campaigns):
        # Per-cell scenarios meet three nines; host-wide incidents do not —
        # the consolidation blast-radius argument in verdict form.
        verdicts = {name: campaigns[name].verdict for name in campaigns}
        assert verdicts == {
            "link-flaps": "pass",
            "plc-crashes": "pass",
            "virt-incident": "fail",
            "correlated": "fail",
            "maintenance": "pass",
        }

    def test_rows_carry_one_verdict_row_per_cell(self, campaigns):
        rows = campaigns["plc-crashes"].rows()
        assert len(rows) == 4
        for row in rows:
            assert row["scenario"] == "plc-crashes"
            assert isinstance(row["ok"], bool)
            assert isinstance(row["within_tolerance"], bool)
            assert len(row["fingerprint"]) == 12


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        scenario = get_scenario("correlated", horizon_s=600.0)
        first = run_campaign(scenario, seed=42)
        second = run_campaign(scenario, seed=42)
        assert first.intervals == second.intervals
        assert first.fingerprint() == second.fingerprint()

    def test_different_seeds_diverge(self):
        scenario = get_scenario("link-flaps", horizon_s=600.0)
        assert (
            run_campaign(scenario, seed=0).fingerprint()
            != run_campaign(scenario, seed=1).fingerprint()
        )

    def test_per_component_streams_isolate_cells(self):
        # Named per-component streams: cell 0's backhaul schedule must not
        # depend on how many sibling components exist in the scenario.
        small = run_campaign(get_scenario("link-flaps", cells=1), seed=5)
        large = run_campaign(get_scenario("link-flaps", cells=4), seed=5)
        assert small.intervals[0] == large.intervals[0]

    def test_maintenance_is_seed_independent(self):
        scenario = get_scenario("maintenance")
        assert (
            run_campaign(scenario, seed=0).fingerprint()
            == run_campaign(scenario, seed=99).fingerprint()
        )

    def test_maintenance_availability_is_exact(self, campaigns):
        result = campaigns["maintenance"]
        for report in result.reports:
            assert report.availability == pytest.approx(
                report.predicted, abs=1e-9
            )


class TestReplay:
    def test_replay_matches_reference(self):
        scenario = get_scenario("link-flaps", horizon_s=600.0)
        reference = run_campaign(scenario, seed=7)
        result = run_campaign(scenario, seed=7)
        assert result.fingerprint() == reference.fingerprint()
        assert result.rows().to_csv() == reference.rows().to_csv()

    def test_row_fingerprint_tracks_its_cells_intervals(self):
        scenario = get_scenario("link-flaps", horizon_s=600.0)
        first = run_campaign(scenario, seed=7)
        second = run_campaign(scenario, seed=8)
        for a, b in zip(first.rows(), second.rows()):
            same = first.intervals[a["cell"]] == second.intervals[b["cell"]]
            assert (a["fingerprint"] == b["fingerprint"]) == same
        assert first.intervals != second.intervals


class TestSerialization:
    def test_fingerprint_is_canonical(self):
        intervals = {1: [(5, 9)], 0: [(1, 2), (3, 4)]}
        reordered = {0: [(1, 2), (3, 4)], 1: [(5, 9)]}
        assert intervals_fingerprint(intervals) == intervals_fingerprint(
            reordered
        )
        assert intervals_fingerprint(intervals) != intervals_fingerprint(
            {0: [(1, 2), (3, 5)], 1: [(5, 9)]}
        )


class TestFlightRecorderIntegration:
    """Chaos faults feed the telemetry flight recorder when one is active."""

    def test_faults_note_and_snapshot_the_flight_recorder(self):
        from repro import obs

        with obs.capture(
            metrics=False, tracing=False,
            telemetry=obs.telemetry.TelemetryHub(),
        ) as handle:
            result = run_campaign(get_scenario("link-flaps"), seed=0)
        hub = handle.telemetry
        assert result.reports  # campaign itself unaffected
        assert hub.flight.events > 0
        kinds = {
            event["kind"]
            for snap in hub.flight.snapshots
            for events in snap["components"].values()
            for event in events
        }
        assert "chaos.fault" in kinds
        triggers = [snap["trigger"] for snap in hub.flight.snapshots]
        assert any(t.startswith("chaos.fault:") for t in triggers)

    def test_campaign_measurement_identical_with_telemetry(self):
        from repro import obs

        plain = run_campaign(get_scenario("link-flaps"), seed=0)
        with obs.capture(metrics=False, tracing=False, telemetry=True):
            observed = run_campaign(get_scenario("link-flaps"), seed=0)
        assert intervals_fingerprint(plain.intervals) == (
            intervals_fingerprint(observed.intervals)
        )
