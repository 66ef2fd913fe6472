"""The parallel experiment engine: grid expansion, determinism, caching."""

import json

import pytest

from repro.obs.sweeptrace import build_timeline, load_events
from repro.runner import (
    MANIFEST_SCHEMA,
    JobGrid,
    ResultCache,
    RunManifest,
    SerialBackend,
    ensure_writable_dir,
    expand_grid,
    make_job,
    run_jobs,
)
from repro.runner.backends.local_pool import LocalPoolBackend

#: A cheap two-figure workload used throughout (sub-second per job).
CHEAP_FIGS = ["fig1", "fig4-delay"]
CHEAP_GRID = {"cycles": [30]}


class TestGridExpansion:
    def test_figures_times_seeds(self):
        jobs = expand_grid(["fig1", "fig5"], seeds=[0, 1, 2])
        assert len(jobs) == 6
        assert {(j.figure, j.seed) for j in jobs} == {
            (f, s) for f in ("fig1", "fig5") for s in (0, 1, 2)
        }

    def test_grid_applies_only_to_declaring_figures(self):
        jobs = expand_grid(
            ["fig1", "fig4-delay"], seeds=[0], grid={"cycles": [100, 200]}
        )
        by_figure = {}
        for job in jobs:
            by_figure.setdefault(job.figure, []).append(job)
        assert len(by_figure["fig1"]) == 1  # fig1 has no 'cycles' param
        assert len(by_figure["fig4-delay"]) == 2
        assert {j.params_dict["cycles"] for j in by_figure["fig4-delay"]} == {
            100, 200,
        }

    def test_cartesian_product_of_grid_params(self):
        jobs = expand_grid(
            ["fig4-jitter"], seeds=[0, 1],
            grid={"cycles": [30, 60], "flow_counts": ["1:5", "1:25"]},
        )
        assert len(jobs) == 8  # 2 seeds x 2 cycles x 2 flow tuples
        assert {j.params_dict["flow_counts"] for j in jobs} == {
            (1, 5), (1, 25),
        }

    def test_unknown_grid_param_rejected(self):
        with pytest.raises(ValueError, match="nonsense"):
            expand_grid(["fig1"], grid={"nonsense": [1]})

    def test_unknown_figure_rejected_with_available_names(self):
        with pytest.raises(ValueError, match="fig5"):
            expand_grid(["fig9"])

    def test_make_job_validates_params(self):
        job = make_job("fig4-delay", seed=2, params={"cycles": "30"})
        assert job.params_dict == {"cycles": 30}
        with pytest.raises(ValueError, match="cycles"):
            make_job("fig4-delay", params={"cylces": 30})

    def test_jobs_are_hashable_and_content_addressed(self):
        a = make_job("fig4-delay", params={"cycles": 30})
        b = make_job("fig4-delay", params={"cycles": 30})
        assert a == b and hash(a) == hash(b)
        assert a.key() == b.key()
        assert a.key() != make_job("fig4-delay", params={"cycles": 31}).key()


class TestLazyGrid:
    """expand_grid returns a lazy JobGrid; consumers must never rely on
    it being a list."""

    def test_expand_grid_returns_job_grid(self):
        grid = expand_grid(["fig1"], seeds=[0, 1])
        assert isinstance(grid, JobGrid)
        assert "2 jobs" in repr(grid)

    def test_len_is_arithmetic_not_materialization(self):
        # A million-cell grid sizes instantly because __len__ multiplies
        # plan dimensions instead of generating cells.
        grid = expand_grid(["fig1"], seeds=range(1_000_000))
        assert len(grid) == 1_000_000

    def test_reiteration_yields_identical_jobs(self):
        grid = expand_grid(
            ["fig1", "fig4-delay"], seeds=[0, 1], grid={"cycles": [30, 60]}
        )
        assert list(grid) == list(grid)
        assert grid == list(grid)

    def test_indexing_and_slicing(self):
        grid = expand_grid(["fig1"], seeds=[0, 1, 2])
        jobs = list(grid)
        assert grid[0] == jobs[0]
        assert grid[-1] == jobs[-1]
        assert grid[1:3] == jobs[1:3]
        with pytest.raises(IndexError):
            grid[3]

    def test_run_jobs_accepts_one_shot_iterators(self):
        jobs = list(expand_grid(["fig1"], seeds=[0, 1]))
        result = run_jobs(iter(jobs), workers=1)
        assert result.ok
        assert len(result.outcomes) == 2

    def test_resume_consumes_the_grid_twice(self, tmp_path):
        grid = expand_grid(["fig1", "fig4-delay"], grid=CHEAP_GRID)
        checkpoint = tmp_path / "manifest.json"
        cache = ResultCache(tmp_path / "cache")
        first = run_jobs(
            grid, workers=1, cache=cache, checkpoint=checkpoint
        )
        assert first.ok
        # Second pass re-iterates the same JobGrid instance.
        resumed = run_jobs(
            grid, workers=1, cache=cache, resume_from=checkpoint
        )
        assert resumed.ok
        assert all(r.cached for r in resumed.manifest.records)


class TestRunJobs:
    def test_results_independent_of_worker_count(self):
        jobs = expand_grid(CHEAP_FIGS, seeds=[0], grid=CHEAP_GRID)
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.job == right.job
            assert left.rows == right.rows
            assert left.rows.to_csv() == right.rows.to_csv()

    def test_outcomes_preserve_job_order(self):
        jobs = expand_grid(CHEAP_FIGS, seeds=[0, 1], grid=CHEAP_GRID)
        result = run_jobs(jobs, workers=2)
        assert [outcome.job for outcome in result.outcomes] == list(jobs)

    def test_stats_collected_per_job(self):
        jobs = [make_job("fig4-delay", params={"cycles": 30})]
        result = run_jobs(jobs, workers=1)
        stats = result.outcomes[0].record.stats
        assert stats is not None
        assert stats["events_executed"] > 0
        assert stats["simulators"] >= 1
        assert stats["sim_time_ns"] > 0

    def test_cold_then_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = expand_grid(CHEAP_FIGS, seeds=[0], grid=CHEAP_GRID)

        cold = run_jobs(jobs, workers=1, cache=cache)
        assert cold.manifest.cache_hits == 0
        assert cold.manifest.cache_misses == len(jobs)

        warm = run_jobs(jobs, workers=1, cache=cache)
        assert warm.manifest.cache_hits == len(jobs)
        assert warm.manifest.cache_misses == 0
        # Zero recomputation: cached records carry no simulator stats.
        assert all(r.cached and r.stats is None for r in warm.manifest.records)
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert a.rows.to_csv() == b.rows.to_csv()

    def test_changed_seed_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_jobs([make_job("fig1", seed=0)], workers=1, cache=cache)
        result = run_jobs([make_job("fig1", seed=1)], workers=1, cache=cache)
        assert result.manifest.cache_misses == 1

    def test_no_cache_recomputes(self, tmp_path):
        jobs = [make_job("fig1")]
        first = run_jobs(jobs, workers=1)
        second = run_jobs(jobs, workers=1)
        assert not first.manifest.records[0].cached
        assert not second.manifest.records[0].cached

    def test_progress_callback_sees_every_job(self):
        seen = []
        jobs = expand_grid(["fig1"], seeds=[0, 1])
        run_jobs(
            jobs, workers=1,
            progress=lambda record, status: seen.append(record),
        )
        assert {(r.figure, r.seed) for r in seen} == {("fig1", 0), ("fig1", 1)}

    def test_rows_for_lookup(self):
        result = run_jobs(expand_grid(["fig1"], seeds=[0, 1]), workers=1)
        assert result.rows_for("fig1", seed=1)
        with pytest.raises(KeyError):
            result.rows_for("fig5")


class TestManifest:
    def test_manifest_json_schema(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [make_job("fig4-delay", params={"cycles": 30})]
        result = run_jobs(jobs, workers=1, cache=cache)
        payload = json.loads(result.manifest.to_json())
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["workers"] == 1
        assert payload["cache_dir"] == str(tmp_path / "cache")
        assert payload["cache_hits"] == 0
        assert payload["cache_misses"] == 1
        assert payload["wall_time_s"] > 0
        (job,) = payload["jobs"]
        assert job["figure"] == "fig4-delay"
        assert job["params"] == {"cycles": 30}
        assert len(job["key"]) == 64
        assert job["stats"]["events_executed"] > 0
        # observability fields exist but stay null without --trace
        assert job["metrics"] is None
        assert job["trace_path"] is None
        assert "hotspots" not in job

    def test_v2_round_trip(self, tmp_path):
        result = run_jobs(
            [make_job("fig1")], workers=1, trace_dir=tmp_path / "traces"
        )
        manifest = RunManifest.from_json(result.manifest.to_json())
        assert manifest.workers == result.manifest.workers
        (record,) = manifest.records
        assert record.figure == "fig1"
        assert record.metrics is not None
        assert manifest.to_json() == result.manifest.to_json()

    @pytest.mark.parametrize(
        "backend, pending, expected",
        [
            (SerialBackend(), 2, ("serial", 1)),
            (LocalPoolBackend(workers=2), 2, ("local-pool", 2)),
            (None, 1, ("serial", 1)),  # auto: one uncached job runs inline
            (None, 2, ("local-pool", 4)),
        ],
        ids=["serial", "local-pool:2", "auto-one-job", "auto-pool"],
    )
    def test_workers_is_the_chosen_backends_parallelism(
        self, tmp_path, backend, pending, expected
    ):
        events = tmp_path / "sweep.events.jsonl"
        result = run_jobs(
            expand_grid(["fig1"], seeds=range(pending)), workers=4,
            backend=backend, sweeptrace=events,
        )
        name, workers = expected
        assert result.manifest.workers == workers
        assert {r.backend for r in result.manifest.records} == {name}
        (dispatch,) = [
            e for e in load_events(events) if e["ev"] == "dispatch"
        ]
        assert (dispatch["backend"], dispatch["workers"]) == expected
        assert build_timeline(load_events(events)).workers == workers

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            RunManifest.from_dict({"schema": "something/else", "jobs": []})

    def test_load_from_file(self, tmp_path):
        result = run_jobs([make_job("fig1")], workers=1)
        target = tmp_path / "manifest.json"
        target.write_text(result.manifest.to_json())
        assert RunManifest.load(target).records[0].figure == "fig1"


class TestObservability:
    def test_trace_dir_writes_chrome_trace_per_job(self, tmp_path):
        trace_dir = tmp_path / "traces"
        result = run_jobs(
            [make_job("fig4-delay", params={"cycles": 30})],
            workers=1,
            trace_dir=trace_dir,
        )
        (record,) = result.manifest.records
        assert record.trace_path is not None
        payload = json.loads((trace_dir / "fig4_delay.seed0.job0.trace.json"
                              ).read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"runner.job", "figure.run", "sim.run"} <= names
        # One file per job: the Chrome trace is the only trace written.
        assert [p.name for p in trace_dir.iterdir()] == [
            "fig4_delay.seed0.job0.trace.json"
        ]
        assert record.trace_path == str(
            trace_dir / "fig4_delay.seed0.job0.trace.json"
        )
        assert record.metrics is not None

    def test_trace_dir_embeds_sim_run_counts_and_metrics(self, tmp_path):
        trace_dir = tmp_path / "traces"
        result = run_jobs(
            [make_job("fig4-delay", params={"cycles": 30})],
            workers=1,
            trace_dir=trace_dir,
        )
        (record,) = result.manifest.records
        payload = json.loads((trace_dir / "fig4_delay.seed0.job0.trace.json"
                              ).read_text())
        # each simulator run is one sim.run span with its event count
        sim_runs = [
            e for e in payload["traceEvents"] if e["name"] == "sim.run"
        ]
        assert sim_runs
        assert all(e["args"]["events"] > 0 for e in sim_runs)
        # tracing embeds a metrics snapshot
        hists = record.metrics["histograms"]
        assert any(h["count"] > 0 for h in hists.values())

    def test_pool_workers_carry_observability(self, tmp_path):
        trace_dir = tmp_path / "traces"
        jobs = expand_grid(CHEAP_FIGS, seeds=[0, 1], grid=CHEAP_GRID)
        result = run_jobs(jobs, workers=2, trace_dir=trace_dir)
        assert all(r.trace_path for r in result.manifest.records)
        assert len(list(trace_dir.glob("*.trace.json"))) == len(jobs)

    def test_cached_jobs_skip_observability(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [make_job("fig1")]
        run_jobs(jobs, workers=1, cache=cache)
        warm = run_jobs(
            jobs, workers=1, cache=cache,
            trace_dir=tmp_path / "traces",
        )
        (record,) = warm.manifest.records
        assert record.cached
        assert record.metrics is None and record.trace_path is None

    def test_unwritable_trace_dir_fails_fast(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not writable"):
            run_jobs([make_job("fig1")], workers=1,
                     trace_dir=blocker / "sub")

    def test_ensure_writable_dir_creates_and_probes(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert ensure_writable_dir(target, "test") == target
        assert target.is_dir()
        assert list(target.iterdir()) == []  # probe file removed


class TestStatusHeartbeat:
    """The status fold run_jobs keeps over its own lifecycle events."""

    def test_updates_at_least_once_per_completed_job(self, tmp_path):
        observed = []

        def watch(record, status):
            observed.append(status["done"])

        jobs = expand_grid(["fig1"], seeds=[0, 1])
        result = run_jobs(jobs, workers=1, progress=watch)
        # by the time each progress callback fires, the fold already
        # counts that job as done
        assert observed == [1, 2]
        final = result.status
        assert final["state"] == "done"
        assert (final["done"], final["ok"], final["failed"]) == (2, 2, 0)

    def test_pool_path_counts_and_finalizes(self, tmp_path):
        jobs = expand_grid(CHEAP_FIGS, seeds=[0, 1], grid=CHEAP_GRID)
        final = run_jobs(jobs, workers=2).status
        assert final["state"] == "done"
        assert final["done"] == final["total"] == len(jobs)
        assert final["current"] == []
        assert (final["backend"], final["workers"]) == ("local-pool", 2)

    def test_failures_and_retries_reach_the_heartbeat(self, tmp_path):
        from .faulty import FLAKY, registered

        with registered(FLAKY):
            job = make_job(
                "test-flaky", params={"marker": str(tmp_path / "marker")}
            )
            final = run_jobs(
                [job], workers=1, retries=1, backoff=0.0,
            ).status
        assert final["state"] == "done"
        assert final["retries"] == 1
        assert final["ok"] == 1
        assert final["failed"] == 0

    def test_degraded_state_and_last_error(self, tmp_path):
        from .faulty import BOOM, registered

        with registered(BOOM):
            final = run_jobs([make_job("test-boom")], workers=1).status
        assert final["state"] == "degraded"
        assert final["failed"] == 1
        assert "boom" in final["last_error"]
        assert final["last_error"].startswith("test-boom seed=0")

    def test_no_status_path_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_jobs(expand_grid(["fig1"]), workers=1)
        assert list(tmp_path.iterdir()) == []

    def test_results_identical_with_and_without_heartbeat(self, tmp_path):
        jobs = expand_grid(["fig1"], seeds=[0])
        plain = run_jobs(jobs, workers=1)
        traced = run_jobs(
            jobs, workers=1, sweeptrace=tmp_path / "sweep.events.jsonl"
        )
        assert plain.rows_for("fig1") == traced.rows_for("fig1")
        left, right = plain.manifest.records[0], traced.manifest.records[0]
        assert left.key == right.key
        assert left.span == right.span
        assert plain.status["ok"] == traced.status["ok"] == 1
