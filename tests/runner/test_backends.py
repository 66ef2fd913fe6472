"""Unit tests for the backend spec grammar and the stdio worker protocol.

The conformance suite (``test_backend_conformance.py``) proves the
backends behave identically end-to-end; this file covers the seams —
spec parsing, backend resolution, and the child-side protocol loop run
in-process against ``StringIO`` pipes.
"""

import json
import sys
from io import StringIO
from pathlib import Path

import pytest

from repro.runner import (
    SerialBackend,
    parse_backend_spec,
    resolve_backend,
)
from repro.runner.backends import subprocess_worker
from repro.runner.backends.local_pool import LocalPoolBackend
from repro.runner.backends.subprocess_worker import (
    SubprocessWorkerBackend,
    compute_spec,
)
from repro.runner.supervisor import RetryPolicy, Task
from repro.runner.worker import _as_payload, resolve_callable, worker_main

from . import faulty


class TestParseBackendSpec:
    def test_bare_name(self):
        assert parse_backend_spec("serial") == ("serial", None)

    def test_name_with_workers(self):
        assert parse_backend_spec("subprocess:4") == ("subprocess", 4)

    def test_case_and_whitespace_are_forgiven(self):
        assert parse_backend_spec("  Local-Pool:8 ") == ("local-pool", 8)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="NAME\\[:WORKERS\\]"):
            parse_backend_spec("   ")

    def test_non_numeric_workers_rejected(self):
        with pytest.raises(ValueError, match="bad worker count"):
            parse_backend_spec("serial:many")

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="at least 1 worker"):
            parse_backend_spec("local-pool:0")


class TestResolveBackend:
    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_none_means_auto(self):
        assert resolve_backend(None) is None

    def test_auto_spec_means_auto(self):
        assert resolve_backend("auto") is None

    def test_spec_workers_beat_jobs_workers(self):
        backend = resolve_backend("local-pool:5", workers=2)
        assert isinstance(backend, LocalPoolBackend)
        assert backend.workers == 5

    def test_jobs_workers_fill_in(self):
        backend = resolve_backend("local-pool", workers=3)
        assert backend.workers == 3

    def test_subprocess_defaults_to_two_workers(self):
        backend = resolve_backend("subprocess")
        assert isinstance(backend, SubprocessWorkerBackend)
        assert backend.workers == 2

    def test_unknown_backend_lists_options(self):
        with pytest.raises(ValueError, match="serial, local-pool"):
            resolve_backend("quantum")

    @pytest.mark.parametrize(
        "alias", ["pool", "local_pool", "worker", "subprocess-worker"]
    )
    def test_retired_aliases_name_the_canonical_specs(self, alias):
        with pytest.raises(ValueError) as excinfo:
            resolve_backend(alias)
        message = str(excinfo.value)
        assert f"unknown backend {alias!r}" in message
        for spec in ("serial", "local-pool", "subprocess", "auto"):
            assert spec in message


class TestComputeSpec:
    def test_module_level_function_round_trips(self):
        spec = compute_spec(faulty.protocol_compute)
        assert spec == "tests.runner.faulty:protocol_compute"
        assert resolve_callable(spec) is faulty.protocol_compute

    def test_lambda_rejected(self):
        with pytest.raises(ValueError, match="not importable by name"):
            compute_spec(lambda payload: payload)

    def test_local_function_rejected(self):
        def local(payload):
            return payload

        with pytest.raises(ValueError, match="not importable by name"):
            compute_spec(local)


class TestResolveCallable:
    def test_bad_spec_shape(self):
        with pytest.raises(ValueError, match="module:qualname"):
            resolve_callable("no-colon-here")

    def test_non_callable_target(self):
        with pytest.raises(TypeError, match="non-callable"):
            resolve_callable("tests.runner.faulty:ALL_SPECS")


class TestPayloadRoundTrip:
    def test_lists_become_tuples(self):
        assert _as_payload([0, "fig", 1]) == (0, "fig", 1)

    def test_param_pairs_become_tuple_of_tuples(self):
        raw = [3, "fig", [["a", 1], ["b", "x"]]]
        assert _as_payload(raw) == (3, "fig", (("a", 1), ("b", "x")))

    def test_non_list_passes_through(self):
        assert _as_payload({"already": "decoded"}) == {"already": "decoded"}


def drive_worker(*messages):
    """Run ``worker_main`` in-process over StringIO pipes."""
    stdin = StringIO("".join(json.dumps(m) + "\n" for m in messages))
    out = StringIO()
    code = worker_main(stdin=stdin, protocol_out=out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, replies


INIT = {
    "type": "init",
    "sys_path": [],
    "preload": [],
    "compute": "tests.runner.faulty:protocol_compute",
}


class TestWorkerProtocol:
    def test_init_job_shutdown_happy_path(self):
        code, replies = drive_worker(
            INIT,
            {"type": "job", "payload": [0, "hello"]},
            {"type": "shutdown"},
        )
        assert code == 0
        assert replies[0] == {"type": "ready"}
        assert replies[1]["type"] == "result"
        assert replies[1]["index"] == 0
        assert replies[1]["result"]["echo"] == "hello"

    def test_figure_exception_becomes_failure_result(self):
        code, replies = drive_worker(
            INIT,
            {"type": "job", "payload": [7, "boom"]},
            {"type": "shutdown"},
        )
        assert code == 0
        result = replies[1]["result"]
        assert replies[1]["index"] == 7
        assert "boom from protocol_compute" in result["error"]
        assert "ValueError" in result["traceback"]

    def test_multiple_jobs_processed_in_order(self):
        code, replies = drive_worker(
            INIT,
            {"type": "job", "payload": [1, "a"]},
            {"type": "job", "payload": [2, "b"]},
            {"type": "shutdown"},
        )
        assert [r["index"] for r in replies[1:]] == [1, 2]

    def test_preload_hooks_run_before_first_job(self):
        before = len(faulty.PRELOAD_CALLS)
        init = dict(INIT, preload=["tests.runner.faulty:mark_preload"])
        code, replies = drive_worker(init, {"type": "shutdown"})
        assert code == 0
        assert replies == [{"type": "ready"}]
        assert len(faulty.PRELOAD_CALLS) == before + 1

    def test_job_before_init_is_a_protocol_error(self):
        with pytest.raises(RuntimeError, match="'job' before 'init'"):
            drive_worker({"type": "job", "payload": [0, "x"]})

    def test_unknown_message_is_a_protocol_error(self):
        with pytest.raises(RuntimeError, match="unknown message"):
            drive_worker(INIT, {"type": "dance"})

    def test_eof_without_shutdown_exits_cleanly(self):
        # A dying parent just closes the pipe; the child must not hang
        # or traceback.
        code, replies = drive_worker(INIT)
        assert code == 0
        assert replies == [{"type": "ready"}]


def fake_worker_backend(tmp_path, monkeypatch, mode, workers=1):
    """A subprocess backend whose children run ``fake_worker.py``.

    The backend's ``python=`` hook takes a shell shim that ignores the
    ``-m repro worker`` arguments and execs the misbehaving stand-in, so
    the parent-side protocol loop under test runs completely unmodified.
    """
    shim = tmp_path / "fake-python"
    script = Path(__file__).parent / "fake_worker.py"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" "{script}"\n')
    shim.chmod(0o755)
    monkeypatch.setenv("FAKE_WORKER_MODE", mode)
    return SubprocessWorkerBackend(workers=workers, python=str(shim))


class TestProtocolRobustness:
    """A child breaking the stdio protocol convicts only that child.

    Each case runs the real parent loop against a real misbehaving
    child process; the contract is: the busy job fails with a
    ``worker protocol violation`` error, ``run`` returns (no hang, no
    exception), and a ``worker_dead`` event names the reason.
    """

    def drive(self, tmp_path, monkeypatch, mode, values=("hello",),
              workers=1):
        backend = fake_worker_backend(tmp_path, monkeypatch, mode, workers)
        tasks = [
            Task(index=i, payload=[i, value], key=f"k{i}", figure="fake")
            for i, value in enumerate(values)
        ]
        finished: dict[int, dict] = {}
        events: list[tuple[str, object, object]] = []
        backend.run(
            tasks,
            faulty.protocol_compute,
            RetryPolicy(retries=0, timeout_s=30.0),
            lambda index, result: finished.setdefault(index, result),
            on_event=lambda kind, task, info=None: events.append(
                (kind, task, info)
            ),
        )
        return finished, events

    def assert_convicted(self, finished, events, index=0, why=""):
        result = finished[index]
        assert "worker protocol violation" in result["error"]
        assert why in result["error"]
        reasons = [
            (info or {}).get("reason")
            for kind, _, info in events
            if kind == "worker_dead"
        ]
        assert any(why in (reason or "") for reason in reasons)

    def test_malformed_json_convicts_the_child(self, tmp_path, monkeypatch):
        finished, events = self.drive(tmp_path, monkeypatch, "malformed")
        self.assert_convicted(finished, events, why="malformed JSON")

    def test_oversized_line_convicts_the_child(self, tmp_path, monkeypatch):
        # Cap one protocol line far below the fake worker's 4 KiB blob so
        # the parent classifies it as oversized rather than reading on.
        monkeypatch.setattr(subprocess_worker, "_MAX_LINE_BYTES", 256)
        finished, events = self.drive(tmp_path, monkeypatch, "oversized")
        self.assert_convicted(finished, events, why="exceeds 256 bytes")

    def test_partial_line_convicts_the_child(self, tmp_path, monkeypatch):
        finished, events = self.drive(tmp_path, monkeypatch, "partial")
        self.assert_convicted(finished, events, why="partial protocol line")

    def test_unknown_message_type_convicts_the_child(
        self, tmp_path, monkeypatch
    ):
        finished, events = self.drive(tmp_path, monkeypatch, "unknown")
        self.assert_convicted(finished, events, why="unknown message type")

    def test_non_object_message_convicts_the_child(
        self, tmp_path, monkeypatch
    ):
        finished, events = self.drive(tmp_path, monkeypatch, "non_object")
        self.assert_convicted(
            finished, events, why="non-object protocol message"
        )

    def test_result_for_idle_child_convicts_without_a_job(
        self, tmp_path, monkeypatch
    ):
        # The rogue result arrives before "ready" ever did; no job was
        # dispatched, so there is nothing to fail — but the child dies
        # and the (still pending) task is retried on a fresh child,
        # which in this mode misbehaves identically until the strike
        # limit aborts the sweep with a diagnostic.
        backend = fake_worker_backend(tmp_path, monkeypatch, "early_result")
        with pytest.raises(RuntimeError, match="breaking protocol"):
            backend.run(
                [Task(index=0, payload=[0, "x"], key="k0", figure="fake")],
                faulty.protocol_compute,
                RetryPolicy(retries=0, timeout_s=30.0),
                lambda index, result: None,
            )

    def test_non_object_result_payload_convicts_the_child(
        self, tmp_path, monkeypatch
    ):
        finished, events = self.drive(tmp_path, monkeypatch, "bad_result")
        self.assert_convicted(
            finished, events, why="non-object result payload"
        )

    def test_sibling_jobs_survive_a_convicted_child(
        self, tmp_path, monkeypatch
    ):
        # Two children: one speaks the protocol correctly, one emits a
        # garbage result.  Only the offender's job is failed.
        finished, events = self.drive(
            tmp_path, monkeypatch, "selective",
            values=("good", "evil"), workers=2,
        )
        assert finished[0] == {"echo": "good", "attempts": 1}
        assert "worker protocol violation" in finished[1]["error"]


class TestWorkerStdout:
    def test_job_writing_to_fd1_still_ends_ok(self):
        # A real ``repro worker`` child: fd 1 must not be the protocol
        # stream once the loop runs, so a write below ``sys.stdout``
        # goes to stderr instead of convicting the child.
        finished: dict[int, dict] = {}
        SubprocessWorkerBackend(workers=1).run(
            [Task(index=0, payload=[0, "hello"], key="k0", figure="fake")],
            faulty.fd1_compute,
            RetryPolicy(retries=0, timeout_s=30.0),
            lambda index, result: finished.setdefault(index, result),
        )
        assert "error" not in finished[0], finished[0].get("error")
        assert finished[0]["status"] == "ok"
        assert finished[0]["echo"] == "hello"
