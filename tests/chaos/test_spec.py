"""ChaosSpec: campaigns projected into the figure registry and runner."""

import pytest

from repro.chaos import (
    CHAOS_PREFIX,
    SCENARIOS,
    campaign_verdict,
    chaos_registry,
)
from repro.figures import UnknownFigureError, get_spec, registry
from repro.runner import ResultCache, expand_grid, run_jobs


class TestRegistry:
    def test_one_spec_per_shipped_scenario(self):
        assert set(chaos_registry()) == set(SCENARIOS)

    def test_lookup_tolerates_the_figure_prefix(self):
        # A scenario is looked up by its prefixed figure name.
        name = chaos_registry()["link-flaps"].figure_name
        assert name == f"{CHAOS_PREFIX}link-flaps"
        assert get_spec(name).name == name

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(UnknownFigureError, match="chaos-link-flaps"):
            get_spec(f"{CHAOS_PREFIX}nope")

    def test_figure_registry_stays_figure_only(self):
        # 'repro all' and the default sweep must not run campaigns.
        assert not any(name.startswith(CHAOS_PREFIX) for name in registry())

    def test_get_spec_falls_back_to_chaos_figures(self):
        spec = get_spec("chaos-link-flaps")
        assert spec.name == "chaos-link-flaps"
        assert spec.verdict is campaign_verdict
        assert {p.name for p in spec.params} == {
            "cells", "mtbf_scale", "mttr_scale", "horizon_s",
        }

    def test_get_spec_unknown_name_lists_both_kinds(self):
        with pytest.raises(UnknownFigureError) as excinfo:
            get_spec("fig99")
        message = str(excinfo.value)
        assert "fig5" in message
        assert "chaos-link-flaps" in message


class TestVerdict:
    def test_pass_requires_every_row_ok(self):
        rows = [{"ok": True}, {"ok": True}]
        assert campaign_verdict(rows) == "pass"
        rows[1]["ok"] = False
        assert campaign_verdict(rows) == "fail"

    def test_empty_rows_cannot_demonstrate_compliance(self):
        # A failed or truncated sweep cell yields no rows; vacuous truth
        # must not turn that into a "pass".
        assert campaign_verdict([]) == "fail"

    def test_figure_spec_rows_match_direct_campaign(self):
        spec = chaos_registry()["maintenance"]
        via_figure = get_spec("chaos-maintenance").run(seed=3)
        direct = spec.run(seed=3).rows()
        assert list(via_figure) == list(direct)


class TestRunnerIntegration:
    def test_sweep_records_verdicts_in_the_manifest(self):
        jobs = expand_grid(
            ["chaos-maintenance"], seeds=[0], grid={"horizon_s": [1200.0]}
        )
        result = run_jobs(jobs, workers=1)
        (record,) = result.manifest.records
        assert record.figure == "chaos-maintenance"
        assert record.verdict == "pass"
        assert record.rows == 4

    def test_grid_sweeps_chaos_params(self):
        jobs = expand_grid(
            ["chaos-virt-incident"],
            seeds=[0],
            grid={"mttr_scale": [1.0, 2.0], "horizon_s": [600.0]},
        )
        assert len(jobs) == 2
        result = run_jobs(jobs, workers=1)
        assert all(r.verdict == "fail" for r in result.manifest.records)

    def test_cache_hits_are_rejudged_not_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = expand_grid(
            ["chaos-maintenance"], seeds=[1], grid={"horizon_s": [1200.0]}
        )
        cold = run_jobs(jobs, workers=1, cache=cache)
        warm = run_jobs(jobs, workers=1, cache=cache)
        (cold_record,) = cold.manifest.records
        (warm_record,) = warm.manifest.records
        assert not cold_record.cached
        assert warm_record.cached
        assert warm_record.verdict == cold_record.verdict == "pass"

    def test_mixed_figure_and_chaos_sweep(self):
        jobs = expand_grid(
            ["fig1", "chaos-maintenance"],
            seeds=[0],
            grid={"horizon_s": [1200.0]},
        )
        result = run_jobs(jobs, workers=1)
        by_figure = {r.figure: r for r in result.manifest.records}
        assert by_figure["fig1"].verdict is None
        assert by_figure["chaos-maintenance"].verdict == "pass"
