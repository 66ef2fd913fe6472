"""Backend-conformance suite: every executor backend, one contract.

Each test runs the same sweep through :func:`repro.runner.run_jobs` on
every backend (serial, local-pool, subprocess) and asserts identical
*observable* behavior: statuses, retry accounting, checkpoint/resume
semantics, and the status folded from the lifecycle events.  This is the suite that lets a
future backend (SSH, work queue) prove itself by passing unchanged.

The subprocess backend's children are fresh processes, so they re-register
the faulty test figures via the ``tests.runner.faulty:install`` preload
hook rather than fork inheritance.
"""

import json

import pytest

from repro import obs
from repro.runner import (
    RETRIES_COUNTER,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultCache,
    SerialBackend,
    make_job,
    run_jobs,
)
from repro.runner.backends.local_pool import LocalPoolBackend
from repro.runner.backends.subprocess_worker import SubprocessWorkerBackend

from .faulty import BOOM, DIE, FLAKY, SLEEPY, STEADY, registered

#: Backends every conformance test runs on.  ``isolating`` marks the
#: process-isolating ones — only they can survive a worker calling
#: ``os._exit`` or preempt a hung job mid-flight.
BACKENDS = {
    "serial": dict(isolating=False),
    "local-pool": dict(isolating=True),
    "subprocess": dict(isolating=True),
}


def make_backend(name: str):
    if name == "serial":
        return SerialBackend()
    if name == "local-pool":
        return LocalPoolBackend(workers=2)
    return SubprocessWorkerBackend(
        workers=2, preload=["tests.runner.faulty:install"]
    )


def statuses(result):
    return {o.job.figure: o.record.status for o in result.outcomes}


@pytest.fixture(params=sorted(BACKENDS))
def backend_name(request):
    return request.param


class TestConformance:
    def test_ok_and_failed_cells_coexist(self, backend_name):
        with registered(BOOM, STEADY):
            result = run_jobs(
                [make_job("test-boom"), make_job("test-steady")],
                workers=2, backend=make_backend(backend_name),
            )
        assert statuses(result) == {
            "test-boom": STATUS_FAILED, "test-steady": STATUS_OK,
        }
        assert result.rows_for("test-steady") == [{"seed": 0, "value": 0}]
        (failure,) = result.failures
        assert "boom: intentional failure" in failure.record.error
        assert "ValueError" in failure.record.traceback
        assert failure.rows == []

    def test_backend_recorded_on_computed_records(self, backend_name):
        with registered(STEADY):
            result = run_jobs(
                [make_job("test-steady")], workers=2,
                backend=make_backend(backend_name),
            )
        (record,) = result.manifest.records
        assert record.backend == backend_name
        payload = json.loads(result.manifest.to_json())
        assert payload["jobs"][0]["backend"] == backend_name

    def test_timeout_is_recorded_and_charged(self, backend_name):
        with registered(SLEEPY, STEADY):
            result = run_jobs(
                [
                    make_job("test-sleepy", params={"sleep_s": 0.4}),
                    make_job("test-steady"),
                ],
                workers=2, timeout_s=0.15,
                backend=make_backend(backend_name),
            )
        assert statuses(result) == {
            "test-sleepy": STATUS_TIMEOUT, "test-steady": STATUS_OK,
        }
        (failure,) = result.failures
        assert "timeout" in failure.record.error

    def test_flaky_job_succeeds_on_retry(self, backend_name, tmp_path):
        marker = tmp_path / "attempted"
        with registered(FLAKY):
            job = make_job("test-flaky", params={"marker": str(marker)})
            with obs.capture() as cap:
                result = run_jobs(
                    [job], workers=2, retries=1, backoff=0.001,
                    backend=make_backend(backend_name),
                )
        (record,) = result.manifest.records
        assert record.status == STATUS_OK
        assert record.attempts == 2
        counters = cap.registry.snapshot()["counters"]
        assert counters[f"{RETRIES_COUNTER}{{figure=test-flaky}}"] == 1

    def test_retry_budget_is_bounded(self, backend_name):
        with registered(BOOM):
            with obs.capture() as cap:
                result = run_jobs(
                    [make_job("test-boom")], workers=2, retries=2,
                    backoff=0.001, backend=make_backend(backend_name),
                )
        (record,) = result.manifest.records
        assert record.status == STATUS_FAILED
        assert record.attempts == 3  # 1 initial + 2 retries
        counters = cap.registry.snapshot()["counters"]
        assert counters[f"{RETRIES_COUNTER}{{figure=test-boom}}"] == 2

    def test_checkpoint_resume_mid_sweep(self, backend_name, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        checkpoint = tmp_path / "manifest.json"
        marker = tmp_path / "attempted"
        with registered(FLAKY, STEADY):
            jobs = [make_job("test-flaky", params={"marker": str(marker)}),
                    make_job("test-steady")]
            degraded = run_jobs(
                jobs, workers=2, cache=cache, checkpoint=checkpoint,
                backend=make_backend(backend_name),
            )
            assert not degraded.ok
            assert marker.exists()
            # The marker "fixes" flaky; resume recomputes only it.
            resumed = run_jobs(
                jobs, workers=2, cache=cache, resume_from=checkpoint,
                backend=make_backend(backend_name),
            )
        by_figure = {r.figure: r for r in resumed.manifest.records}
        assert by_figure["test-steady"].status == STATUS_CACHED
        assert by_figure["test-steady"].cached
        assert by_figure["test-flaky"].status == STATUS_OK
        assert resumed.ok

    def test_status_heartbeats_fire(self, backend_name, tmp_path):
        from repro.obs.status import fold_status
        from repro.obs.sweeptrace import load_events

        events = tmp_path / "sweep.events.jsonl"
        marker = tmp_path / "attempted"
        with registered(FLAKY, STEADY):
            result = run_jobs(
                [
                    make_job("test-flaky", params={"marker": str(marker)}),
                    make_job("test-steady"),
                ],
                workers=2, retries=1, backoff=0.001,
                sweeptrace=events,
                backend=make_backend(backend_name),
            )
        final = result.status
        assert final["state"] == "done"
        assert final["total"] == 2
        assert final["done"] == 2
        assert final["retries"] == 1
        assert final["failed"] == 0
        assert final["backend"] == backend_name
        assert final["workers"] == result.manifest.workers
        assert final["current"] == []
        # the events file folds to the same status as the in-memory fold
        assert fold_status(load_events(events)) == final

    def test_streamed_rows_match_in_memory(self, backend_name, tmp_path):
        with registered(STEADY):
            jobs = [make_job("test-steady", seed=s) for s in range(3)]
            plain = run_jobs(
                jobs, workers=2, backend=make_backend(backend_name),
            )
            streamed = run_jobs(
                jobs, workers=2, backend=make_backend(backend_name),
                stream_rows=tmp_path / "rows", chunk_rows=1,
            )
        for left, right in zip(plain.outcomes, streamed.outcomes):
            assert right.record.row_chunks, "streamed record lists chunks"
            assert left.rows == right.rows
            assert left.rows.to_csv() == right.rows.to_csv()
            assert left.record.verdict == right.record.verdict


@pytest.mark.parametrize(
    "backend_name",
    [name for name, props in sorted(BACKENDS.items()) if props["isolating"]],
)
class TestProcessIsolation:
    """Contracts only process-isolating backends can honor.

    The serial backend shares its process with the supervisor, so a
    worker calling ``os._exit`` would kill the whole sweep — these cases
    are exactly why ``local-pool``/``subprocess`` exist.
    """

    def test_dying_worker_convicted_bystander_survives(self, backend_name):
        with registered(DIE, STEADY):
            result = run_jobs(
                [make_job("test-die"), make_job("test-steady")],
                workers=2, backend=make_backend(backend_name),
            )
        assert statuses(result) == {
            "test-die": STATUS_FAILED, "test-steady": STATUS_OK,
        }
        (failure,) = result.failures
        assert "worker process died" in failure.record.error
        # The innocent bystander kept its rows and was never charged.
        assert result.rows_for("test-steady") == [{"seed": 0, "value": 0}]
        by_figure = {r.figure: r for r in result.manifest.records}
        assert by_figure["test-steady"].attempts == 1

    def test_dying_worker_retry_budget_applies(self, backend_name):
        with registered(DIE):
            result = run_jobs(
                [make_job("test-die")], workers=2, retries=1, backoff=0.001,
                backend=make_backend(backend_name),
            )
        (record,) = result.manifest.records
        assert record.status == STATUS_FAILED
        assert record.attempts == 2
