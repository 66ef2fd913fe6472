"""Machine-readable run manifest for experiment sweeps.

Every :func:`repro.runner.run_jobs` call produces a :class:`RunManifest`
summarizing what ran, what failed, what was served from cache, and what
it cost.  The JSON schema (``repro.runner/manifest/v3``)::

    {
      "schema": "repro.runner/manifest/v3",
      "version": "1.4.0",            // repro package version
      "workers": 4,                  // parallelism of the backend chosen
      "cache_dir": ".repro-cache",   // null when caching was disabled
      "cache_hits": 3,
      "cache_misses": 5,
      "failed": 1,                   // jobs with status failed/timeout
      "wall_time_s": 12.81,          // whole-sweep wall clock
      "jobs": [
        {
          "figure": "fig5",
          "seed": 0,
          "params": {"duration_ms": 3000, "crash_ms": 1500},
          "key": "ab3f…9c",          // content address in the cache
          "cached": false,
          "wall_time_s": 0.52,       // cache-service time for cache hits
          "rows": 60,
          // -- v3 supervision fields (see repro.runner.supervisor) ---------
          "status": "ok",            // "ok" | "failed" | "timeout" | "cached"
          "error": null,             // one-line error for failed/timeout jobs
          "traceback": null,         // worker traceback when one was caught
          "attempts": 1,             // executions incl. retries
          // -- PR-8 distributed/streaming fields (additive, optional) ------
          "backend": "local-pool",   // executor backend (null for cache hits)
          "row_chunks": null,        // chunked JSONL row files when streamed
          // -- sweep-trace timing fields, folded from the sweep's lifecycle
          //    events (see repro.obs.sweeptrace); null on cache hits ------
          "queue_s": 0.004,          // submission -> first attempt start
          "compute_s": 0.52,         // execution time across all attempts
          "attempt_timings": [       // one entry per execution attempt
            {"attempt": 1, "outcome": "ok", "start_s": 0.004, "wall_s": 0.52}
          ],
          "span": "9d41c2b07a3e5f18",  // span id in sweep.events.jsonl
          "stats": {                 // Simulator.stats totals; null if cached
            "simulators": 1,
            "events_scheduled": 241035,
            "events_executed": 240911,
            "processes_started": 12,
            "sim_time_ns": 3000000000
          },
          "rows_path": "results/fig5.csv",  // when the caller exported rows
          // -- v2 observability fields (null unless the sweep ran with
          //    tracing enabled; see repro.obs) ----------------------------
          "metrics": {               // repro.obs MetricsRegistry.snapshot()
            "counters": {"net.host.frames{direction=rx,host=io}": 401, ...},
            "histograms": {"net.port.tx_ns": {"edges": [...], "counts": [...],
                           "count": 1692, "sum": ..., "min": ..., "max": ...}}
          },
          // trace_path and telemetry_path are relative to the run
          // directory (the manifest's own directory)
          "trace_path": "trace/fig5.seed0.job3.trace.json",
          // -- in-band network telemetry (null unless the sweep ran with
          //    telemetry_dir=; see repro.obs.telemetry) -------------------
          "telemetry": {"flight_events": 12, "flight_snapshots": 0,
                        "top_queues": [...], "links": [...]},
          "telemetry_path": "telemetry/fig5.seed0.job3.telemetry.json",
          // -- verdict (null unless the spec declares a verdict function;
          //    chaos campaigns record "pass"/"fail" compliance here) ------
          "verdict": "pass"
        }
      ]
    }

Only v3 is read.  Optional fields an older v3 file lacks (the
sweep-trace timing fields, for one) load as ``None``, and keys this
version no longer writes are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import __version__

MANIFEST_SCHEMA = "repro.runner/manifest/v3"

#: Job statuses that carry usable rows (mirrors ``supervisor.OK_STATUSES``
#: without importing it: the manifest layer stays dependency-free).
_OK_STATUSES = ("ok", "cached")


@dataclass
class JobRecord:
    """One (figure, seed, params) cell of a sweep."""

    figure: str
    seed: int
    params: dict[str, Any]
    key: str
    cached: bool
    wall_time_s: float
    rows: int
    stats: dict[str, int] | None = None
    rows_path: str | None = None
    #: ``repro.obs`` metrics snapshot (v2; ``None`` when obs was off).
    metrics: dict[str, Any] | None = None
    #: Chrome trace-event file written for this job (v2).
    trace_path: str | None = None
    #: Spec verdict over the rows (v2; chaos campaigns: "pass"/"fail").
    verdict: str | None = None
    #: In-band network telemetry digest (``TelemetryHub.summary()``;
    #: ``None`` unless the sweep ran with ``telemetry_dir=``).
    telemetry: dict[str, Any] | None = None
    #: Full ``.telemetry.json`` snapshot written for this job.
    telemetry_path: str | None = None
    #: Executor backend that computed the job (PR-8: "serial",
    #: "local-pool", "subprocess"; ``None`` for cache hits and pre-PR-8
    #: manifests).
    backend: str | None = None
    #: Chunked JSONL row files when the sweep streamed rows to disk
    #: (see :mod:`repro.runner.rowstream`); ``None`` for in-memory runs.
    row_chunks: list[str] | None = None
    #: Terminal state (v3): "ok", "failed", "timeout", or "cached".
    status: str = "ok"
    #: One-line error description for failed/timeout jobs (v3).
    error: str | None = None
    #: Worker traceback, when the failure raised inside the figure (v3).
    traceback: str | None = None
    #: Number of executions, including retries (v3).
    attempts: int = 1
    #: Seconds between submission to the backend and the first execution
    #: attempt (``None`` for cache hits).
    queue_s: float | None = None
    #: Seconds of actual execution across all attempts.
    compute_s: float | None = None
    #: Per-attempt ``{"attempt", "outcome", "start_s", "wall_s"}`` log
    #: from the sweep trace (``None`` for cache hits).
    attempt_timings: list[dict[str, Any]] | None = None
    #: Sweep-trace span id correlating this record with
    #: ``sweep.events.jsonl`` and the job's Chrome trace.
    span: str | None = None

    @property
    def ok(self) -> bool:
        """Whether this record's rows are usable (status ok/cached)."""
        return self.status in _OK_STATUSES

    def as_dict(self) -> dict[str, Any]:
        return {
            "figure": self.figure,
            "seed": self.seed,
            "params": self.params,
            "key": self.key,
            "cached": self.cached,
            "wall_time_s": round(self.wall_time_s, 6),
            "rows": self.rows,
            "stats": self.stats,
            "rows_path": self.rows_path,
            "metrics": self.metrics,
            "trace_path": self.trace_path,
            "verdict": self.verdict,
            "telemetry": self.telemetry,
            "telemetry_path": self.telemetry_path,
            "backend": self.backend,
            "row_chunks": self.row_chunks,
            "status": self.status,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "queue_s": self.queue_s,
            "compute_s": self.compute_s,
            "attempt_timings": self.attempt_timings,
            "span": self.span,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        """Rebuild a record from its manifest JSON form."""
        return cls(
            figure=payload["figure"],
            seed=payload["seed"],
            params=dict(payload.get("params") or {}),
            key=payload["key"],
            cached=payload["cached"],
            wall_time_s=payload.get("wall_time_s", 0.0),
            rows=payload.get("rows", 0),
            stats=payload.get("stats"),
            rows_path=payload.get("rows_path"),
            metrics=payload.get("metrics"),
            trace_path=payload.get("trace_path"),
            verdict=payload.get("verdict"),
            telemetry=payload.get("telemetry"),
            telemetry_path=payload.get("telemetry_path"),
            backend=payload.get("backend"),
            row_chunks=payload.get("row_chunks"),
            status=payload["status"],
            error=payload.get("error"),
            traceback=payload.get("traceback"),
            attempts=payload.get("attempts", 1),
            queue_s=payload.get("queue_s"),
            compute_s=payload.get("compute_s"),
            attempt_timings=payload.get("attempt_timings"),
            span=payload.get("span"),
        )


def job_label(record: Any) -> str:
    """``figure seed=S k=v ...`` with parameters in sorted order.

    ``record`` is a :class:`JobRecord` or a :class:`~repro.runner.Job`:
    anything with ``figure``, ``seed`` and ``params`` (a mapping or
    ``(name, value)`` pairs).
    """
    parts = [record.figure, f"seed={record.seed}"]
    parts += [f"{k}={v}" for k, v in sorted(dict(record.params).items())]
    return " ".join(parts)


@dataclass
class RunManifest:
    """Summary of one sweep: job records plus cache/timing counters."""

    workers: int
    cache_dir: str | None
    wall_time_s: float = 0.0
    records: list[JobRecord] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for record in self.records if not record.cached)

    @property
    def failed(self) -> int:
        """Jobs that ended failed or timed out after exhausting retries."""
        return sum(1 for record in self.records if not record.ok)

    @property
    def degraded(self) -> bool:
        """Whether the sweep completed with at least one failed job."""
        return self.failed > 0

    def failures(self) -> list[JobRecord]:
        """The failed/timeout records, in job order."""
        return [record for record in self.records if not record.ok]

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "version": __version__,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failed": self.failed,
            "wall_time_s": round(self.wall_time_s, 6),
            "jobs": [record.as_dict() for record in self.records],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its JSON form (schema v3)."""
        schema = payload.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported manifest schema {schema!r}; "
                f"readable: {MANIFEST_SCHEMA}"
            )
        return cls(
            workers=payload.get("workers", 1),
            cache_dir=payload.get("cache_dir"),
            wall_time_s=payload.get("wall_time_s", 0.0),
            records=[
                JobRecord.from_dict(job) for job in payload.get("jobs", [])
            ],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Path | str) -> "RunManifest":
        """Read a manifest file written by ``repro sweep``/``repro all``."""
        return cls.from_json(Path(path).read_text())
