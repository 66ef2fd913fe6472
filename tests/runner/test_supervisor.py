"""Fault-tolerant sweep execution: isolation, timeout, retry, resume."""

import json

import pytest

from repro import obs
from repro.runner import (
    MANIFEST_SCHEMA,
    RETRIES_COUNTER,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultCache,
    RetryPolicy,
    RunManifest,
    make_job,
    run_jobs,
)

from .faulty import BOOM, DIE, FLAKY, SLEEPY, STEADY, registered


def statuses(result):
    return {o.job.figure: o.record.status for o in result.outcomes}


class TestCrashIsolation:
    def test_raising_figure_does_not_kill_the_sweep(self):
        with registered(BOOM, STEADY):
            result = run_jobs(
                [make_job("test-boom"), make_job("test-steady")], workers=2
            )
        assert statuses(result) == {
            "test-boom": STATUS_FAILED, "test-steady": STATUS_OK,
        }
        assert result.rows_for("test-steady") == [{"seed": 0, "value": 0}]
        (failure,) = result.failures
        assert "boom: intentional failure" in failure.record.error
        assert "ValueError" in failure.record.traceback
        assert failure.rows == []

    def test_inline_path_isolates_failures_too(self):
        with registered(BOOM, STEADY):
            result = run_jobs(
                [make_job("test-boom"), make_job("test-steady")], workers=1
            )
        assert statuses(result) == {
            "test-boom": STATUS_FAILED, "test-steady": STATUS_OK,
        }

    def test_dying_worker_is_detected_and_bystanders_survive(self):
        with registered(DIE, STEADY):
            result = run_jobs(
                [make_job("test-die"), make_job("test-steady")], workers=2
            )
        assert statuses(result) == {
            "test-die": STATUS_FAILED, "test-steady": STATUS_OK,
        }
        (failure,) = result.failures
        assert "worker process died" in failure.record.error
        # the innocent bystander was never charged a failed attempt
        steady = result.rows_for("test-steady")
        assert steady == [{"seed": 0, "value": 0}]

    def test_failed_manifest_is_v3_with_error_details(self):
        with registered(BOOM):
            result = run_jobs([make_job("test-boom")], workers=1)
        payload = json.loads(result.manifest.to_json())
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["failed"] == 1
        (job,) = payload["jobs"]
        assert job["status"] == STATUS_FAILED
        assert "boom" in job["error"]
        assert job["rows"] == 0

    def test_failed_rows_never_poison_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with registered(BOOM):
            run_jobs([make_job("test-boom")], workers=1, cache=cache)
            again = run_jobs([make_job("test-boom")], workers=1, cache=cache)
        assert len(cache) == 0
        assert again.manifest.records[0].status == STATUS_FAILED


class TestTimeout:
    def test_hung_job_times_out_and_sweep_completes(self):
        with registered(SLEEPY, STEADY):
            result = run_jobs(
                [
                    make_job("test-sleepy", params={"sleep_s": 30.0}),
                    make_job("test-steady"),
                ],
                workers=2,
                timeout_s=1.0,
            )
        assert statuses(result) == {
            "test-sleepy": STATUS_TIMEOUT, "test-steady": STATUS_OK,
        }
        (failure,) = result.failures
        assert "timeout" in failure.record.error

    def test_timeout_forces_pool_even_for_one_job(self):
        # Inline execution cannot kill a hung frame; timeout_s must route
        # a single job through the supervised pool.
        with registered(SLEEPY):
            result = run_jobs(
                [make_job("test-sleepy", params={"sleep_s": 30.0})],
                workers=1,
                timeout_s=0.5,
            )
        assert result.manifest.records[0].status == STATUS_TIMEOUT


class TestRetries:
    def test_flaky_job_succeeds_on_retry(self, tmp_path):
        marker = tmp_path / "attempted"
        with registered(FLAKY):
            job = make_job("test-flaky", params={"marker": str(marker)})
            with obs.capture() as cap:
                result = run_jobs([job], workers=2, retries=1)
        (record,) = result.manifest.records
        assert record.status == STATUS_OK
        assert record.attempts == 2
        counters = cap.registry.snapshot()["counters"]
        assert counters[f"{RETRIES_COUNTER}{{figure=test-flaky}}"] == 1

    def test_retry_budget_is_bounded(self, tmp_path):
        with registered(BOOM):
            with obs.capture() as cap:
                result = run_jobs(
                    [make_job("test-boom")], workers=2, retries=2,
                    backoff=0.001,
                )
        (record,) = result.manifest.records
        assert record.status == STATUS_FAILED
        assert record.attempts == 3  # 1 initial + 2 retries
        counters = cap.registry.snapshot()["counters"]
        assert counters[f"{RETRIES_COUNTER}{{figure=test-boom}}"] == 2

    def test_inline_retries_count_too(self, tmp_path):
        marker = tmp_path / "attempted"
        with registered(FLAKY):
            job = make_job("test-flaky", params={"marker": str(marker)})
            with obs.capture() as cap:
                result = run_jobs([job], workers=1, retries=1, backoff=0.001)
        assert result.manifest.records[0].attempts == 2
        counters = cap.registry.snapshot()["counters"]
        assert counters[f"{RETRIES_COUNTER}{{figure=test-flaky}}"] == 1

    def test_retry_reruns_identical_seed_and_params(self, tmp_path):
        # The acceptance bar: backoff must not perturb simulation inputs,
        # so a retried cell's rows equal an unretried run's rows.
        marker = tmp_path / "attempted"
        with registered(FLAKY):
            job = make_job("test-flaky", seed=7, params={"marker": str(marker)})
            retried = run_jobs([job], workers=2, retries=1)
            marker.write_text("already there")
            clean = run_jobs([job], workers=1)
        assert retried.rows_for("test-flaky") == clean.rows_for("test-flaky")
        assert retried.rows_for("test-flaky")[0]["seed"] == 7


class TestBackoffDeterminism:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(backoff_base_s=0.1)
        first = [policy.backoff_s("somekey", n) for n in range(1, 6)]
        second = [policy.backoff_s("somekey", n) for n in range(1, 6)]
        assert first == second

    def test_backoff_grows_exponentially_and_is_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5
        )
        delays = [policy.backoff_s("k", n) for n in range(1, 10)]
        # jitter is in [0.5x, 1.5x); the envelope still doubles
        assert delays[1] > delays[0] * 2 * 0.5 / 1.5
        assert max(delays) <= 0.5

    def test_different_keys_get_different_jitter(self):
        policy = RetryPolicy(backoff_base_s=0.1)
        assert policy.backoff_s("a", 1) != policy.backoff_s("b", 1)


class TestCheckpointResume:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_checkpoint_flushed_after_every_job(self, tmp_path, warm):
        cache = ResultCache(tmp_path / "cache")
        checkpoint = tmp_path / "manifest.json"
        reported: list[str] = []
        seen: list[int] = []

        def watch(record, status):
            # the checkpoint on disk covers every record reported so far
            reported.append(record.key)
            on_disk = {r.key for r in RunManifest.load(checkpoint).records}
            assert set(reported) <= on_disk
            seen.append(len(on_disk))

        with registered(STEADY):
            jobs = [make_job("test-steady", seed=s) for s in range(3)]
            if warm:
                run_jobs(jobs, workers=1, cache=cache)
            result = run_jobs(
                jobs,
                workers=1,
                cache=cache,
                progress=watch,
                checkpoint=checkpoint,
            )
        # cache hits share one flush; computed jobs flush one by one
        assert seen == ([3, 3, 3] if warm else [1, 2, 3])
        assert all(r.cached == warm for r in result.manifest.records)
        final = RunManifest.load(checkpoint)
        expected = RunManifest.from_json(result.manifest.to_json())
        assert final.records == expected.records
        assert json.loads(checkpoint.read_text())["schema"] == MANIFEST_SCHEMA

    def test_resume_into_its_own_checkpoint_survives_interrupt(
        self, tmp_path
    ):
        # ``repro all --resume results/manifest.json`` resumes from and
        # checkpoints to the same file: an interrupt while serving cache
        # hits must not shrink it to the hits reported so far.
        cache = ResultCache(tmp_path / "cache")
        checkpoint = tmp_path / "manifest.json"

        def interrupt(record, status):
            raise KeyboardInterrupt

        with registered(STEADY):
            jobs = [make_job("test-steady", seed=s) for s in range(3)]
            run_jobs(jobs, workers=1, cache=cache, checkpoint=checkpoint)
            with pytest.raises(KeyboardInterrupt):
                run_jobs(
                    jobs,
                    workers=1,
                    cache=cache,
                    progress=interrupt,
                    resume_from=checkpoint,
                    checkpoint=checkpoint,
                )
        assert len(RunManifest.load(checkpoint).records) == 3

    def test_resume_skips_ok_cells_and_reruns_failed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        checkpoint = tmp_path / "manifest.json"
        marker = tmp_path / "attempted"
        with registered(FLAKY, STEADY):
            jobs = [make_job("test-flaky", params={"marker": str(marker)}),
                    make_job("test-steady")]
            # First sweep: flaky fails terminally (and drops its marker),
            # steady succeeds; the checkpoint records both.
            degraded = run_jobs(
                jobs, workers=1, cache=cache, checkpoint=checkpoint
            )
            assert not degraded.ok
            assert marker.exists()
            # Resume: the marker "fixes" flaky, so only it should rerun.
            resumed = run_jobs(
                jobs, workers=1, cache=cache, resume_from=checkpoint
            )
        by_figure = {r.figure: r for r in resumed.manifest.records}
        # the previously-ok cell came from the cache, not a recomputation
        assert by_figure["test-steady"].status == STATUS_CACHED
        assert by_figure["test-steady"].cached
        assert by_figure["test-flaky"].status == STATUS_OK
        assert resumed.ok

    def test_resume_does_not_trust_cache_for_failed_cells(self, tmp_path):
        # A cache entry written under the same key by some other run must
        # not short-circuit a cell the resume manifest recorded as failed.
        cache = ResultCache(tmp_path / "cache")
        with registered(BOOM, STEADY):
            jobs = [make_job("test-boom"), make_job("test-steady")]
            first = run_jobs(jobs, workers=1, cache=cache)
            # sneak rows in under the failed job's key
            cache.put(
                jobs[0].key(), STEADY.fn(seed=0),
                figure="test-boom", seed=0, params={},
            )
            resumed = run_jobs(
                jobs, workers=1, cache=cache, resume_from=first.manifest
            )
        by_figure = {r.figure: r for r in resumed.manifest.records}
        assert by_figure["test-steady"].status == STATUS_CACHED
        # boom reran (and failed again) instead of serving planted rows
        assert by_figure["test-boom"].status == STATUS_FAILED

    def test_resume_accepts_manifest_object_or_path(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with registered(STEADY):
            jobs = [make_job("test-steady")]
            first = run_jobs(jobs, workers=1, cache=cache)
            via_object = run_jobs(
                jobs, workers=1, cache=cache, resume_from=first.manifest
            )
            path = tmp_path / "m.json"
            path.write_text(first.manifest.to_json())
            via_path = run_jobs(
                jobs, workers=1, cache=cache, resume_from=path
            )
        assert via_object.manifest.records[0].status == STATUS_CACHED
        assert via_path.manifest.records[0].status == STATUS_CACHED


class TestWriteProbeUniqueness:
    def test_probe_names_are_unique_per_call(self, tmp_path):
        from repro.runner.engine import _PROBE_COUNTER, ensure_writable_dir

        before = next(_PROBE_COUNTER)
        ensure_writable_dir(tmp_path, "test output")
        ensure_writable_dir(tmp_path, "test output")
        assert next(_PROBE_COUNTER) == before + 3

    def test_probe_does_not_clobber_unrelated_files(self, tmp_path):
        # Regression: the probe used a fixed name, so two concurrent
        # sweeps (or a user file of that name) could be unlinked by the
        # probe cycle of another process.
        from repro.runner.engine import ensure_writable_dir

        bystander = tmp_path / ".repro-write-probe"
        bystander.write_text("someone else's probe")
        ensure_writable_dir(tmp_path, "test output")
        assert bystander.read_text() == "someone else's probe"
        assert list(tmp_path.iterdir()) == [bystander]


class TestSweepResultErgonomics:
    def test_rows_for_names_seed_and_available_outcomes(self):
        with registered(STEADY):
            result = run_jobs(
                [make_job("test-steady", seed=s) for s in (0, 1)], workers=1
            )
        with pytest.raises(KeyError, match=r"seed 5"):
            result.rows_for("test-steady", seed=5)
        with pytest.raises(KeyError, match=r"test-steady \(seed 0\)"):
            result.rows_for("fig9")

    def test_rows_for_failed_cell_reports_the_error(self):
        with registered(BOOM):
            result = run_jobs([make_job("test-boom")], workers=1)
        with pytest.raises(KeyError, match="boom: intentional failure"):
            result.rows_for("test-boom")

    def test_ok_and_failures_properties(self):
        with registered(BOOM, STEADY):
            result = run_jobs(
                [make_job("test-boom"), make_job("test-steady")], workers=1
            )
        assert not result.ok
        assert [o.job.figure for o in result.failures] == ["test-boom"]
        clean = run_jobs([make_job("fig1")], workers=1)
        assert clean.ok and clean.failures == []
