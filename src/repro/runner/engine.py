"""The parallel experiment engine.

Expands a (figure × seed × param-grid) request into :class:`Job` cells,
hands the uncached cells to an executor backend
(:mod:`repro.runner.backends`, imported when a sweep selects it), and
returns a :class:`SweepResult` pairing each job's
:class:`~repro.figures.Rows` with a
:class:`~repro.runner.manifest.RunManifest` of cache and timing counters.

Results are deterministic and independent of the worker count: every job
is a pure function of ``(figure, seed, params, version)``, and rows are
reassembled in job order.  Cache lookups happen *before* dispatch, so a
warm-cache sweep performs zero figure recomputation.

Execution is fault tolerant (see :mod:`repro.runner.supervisor`): a
raising figure, a hung job, or a dying worker process becomes a
``failed``/``timeout`` :class:`~repro.runner.manifest.JobRecord` instead
of aborting the sweep, bounded retries rerun failed cells after a
deterministic backoff, the manifest can be checkpointed once for all
cache hits and then after every computed job, and ``resume_from=``
skips cells an earlier (possibly interrupted or degraded) run already
completed.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..figures import Rows, get_spec
from ..simcore.stats import collect as collect_stats
from .. import obs
from .backends import ExecutorBackend, resolve_backend
from .cache import ResultCache, cache_key
from .manifest import JobRecord, RunManifest, job_label
from .rowstream import DEFAULT_CHUNK_ROWS, LazyRows, write_row_chunks
from .supervisor import (
    OK_STATUSES,
    STATUS_CACHED,
    STATUS_OK,
    RetryPolicy,
    Task,
)


@dataclass(frozen=True)
class Job:
    """One (figure, seed, params) cell of a sweep.  Hashable."""

    figure: str
    seed: int
    #: Sorted ``(name, value)`` pairs; tuples keep the job hashable.
    params: tuple[tuple[str, Any], ...] = ()

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def key(self) -> str:
        """Content address of this cell in the result cache."""
        return cache_key(self.figure, self.seed, self.params_dict)


@dataclass
class JobOutcome:
    """A job plus its rows and manifest record.

    ``rows`` is an eager :class:`~repro.figures.Rows` for in-memory runs
    and a disk-backed :class:`~repro.runner.rowstream.LazyRows` when the
    sweep streamed rows; both iterate, measure, render, and compare the
    same way.
    """

    job: Job
    rows: "Rows | LazyRows"
    record: JobRecord


@dataclass
class SweepResult:
    """Everything a sweep produced, in job order.

    Failed cells are *included*: their outcomes carry empty rows and a
    record with ``status`` ``"failed"``/``"timeout"`` plus the error.  Use
    :attr:`failures` (or ``manifest.degraded``) to detect partial results.
    """

    outcomes: list[JobOutcome]
    manifest: RunManifest
    #: Final :mod:`repro.obs.status` snapshot of the sweep's events.
    status: dict[str, Any]

    @property
    def failures(self) -> list[JobOutcome]:
        """Outcomes whose job failed or timed out, in job order."""
        return [o for o in self.outcomes if not o.record.ok]

    @property
    def ok(self) -> bool:
        """Whether every cell completed (computed or cached)."""
        return not self.failures

    def rows_for(
        self, figure: str, seed: int | None = None
    ) -> "Rows | LazyRows":
        """Rows of the first *completed* outcome matching ``figure``
        (and ``seed``); failed cells raise with their recorded error."""
        failed: JobOutcome | None = None
        for outcome in self.outcomes:
            if outcome.job.figure == figure and (
                seed is None or outcome.job.seed == seed
            ):
                if outcome.record.ok:
                    return outcome.rows
                failed = failed or outcome
        requested = (
            f"figure {figure!r}"
            if seed is None
            else f"figure {figure!r} seed {seed}"
        )
        if failed is not None:
            raise KeyError(
                f"outcome for {requested} is {failed.record.status}: "
                f"{failed.record.error or 'unknown error'}"
            )
        available = sorted(
            {(o.job.figure, o.job.seed) for o in self.outcomes}
        )
        listing = ", ".join(f"{f} (seed {s})" for f, s in available) or "none"
        raise KeyError(
            f"no outcome for {requested}; available: {listing}"
        )


def make_job(
    figure: str, seed: int = 0, params: Mapping[str, Any] | None = None
) -> Job:
    """Validate ``figure``/``params`` against the spec and build a job."""
    resolved = get_spec(figure).resolve(params)
    return Job(
        figure=figure,
        seed=seed,
        params=tuple(sorted(resolved.items())),
    )


class JobGrid:
    """A lazy, re-iterable expansion of figures × seeds × parameter grid.

    Validation (unknown figures, undeclared grid parameters, value
    coercion) happens eagerly at construction so errors surface where the
    grid is written, but the :class:`Job` cells themselves are generated
    on demand: ``len()`` is computed arithmetically and iterating never
    holds more than one job in memory.  The grid can be iterated any
    number of times (every pass yields identical jobs in identical
    order), sliced, and indexed — consumers that need a list can just
    call ``list(grid)``.
    """

    def __init__(
        self,
        figures: Sequence[str],
        seeds: Iterable[int] = (0,),
        grid: Mapping[str, Sequence[Any]] | None = None,
    ) -> None:
        grid = dict(grid or {})
        self._seeds = list(seeds)
        specs = [get_spec(name) for name in figures]
        if grid:
            declared = {p.name for spec in specs for p in spec.params}
            unknown = sorted(set(grid) - declared)
            if unknown:
                raise ValueError(
                    f"grid parameter(s) {', '.join(unknown)} not declared "
                    f"by any selected figure "
                    f"({', '.join(s.name for s in specs)})"
                )
        #: Per-figure plan: (name, grid param names, coerced value lists).
        self._plan: list[tuple[str, list[str], list[list[Any]]]] = []
        for spec in specs:
            names = [p.name for p in spec.params if p.name in grid]
            values = [
                [spec.param(name).coerce(v) for v in grid[name]]
                for name in names
            ]
            self._plan.append((spec.name, names, values))

    def __len__(self) -> int:
        total = 0
        for _, _, values in self._plan:
            combos = 1
            for column in values:
                combos *= len(column)
            total += combos * len(self._seeds)
        return total

    def __iter__(self):
        for name, names, values in self._plan:
            for seed in self._seeds:
                for combo in itertools.product(*values) if names else [()]:
                    overrides = dict(zip(names, combo))
                    yield make_job(name, seed=seed, params=overrides)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(itertools.islice(
                iter(self), *index.indices(len(self))
            ))
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(index)
        return next(itertools.islice(iter(self), index, None))

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (JobGrid, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        figures = ", ".join(name for name, _, _ in self._plan)
        return f"JobGrid({len(self)} jobs over [{figures}])"


def expand_grid(
    figures: Sequence[str],
    seeds: Iterable[int] = (0,),
    grid: Mapping[str, Sequence[Any]] | None = None,
) -> JobGrid:
    """Expand figures × seeds × parameter grid into concrete jobs.

    ``grid`` maps parameter names to lists of values.  A grid parameter is
    applied to every selected figure that declares it; figures that do not
    declare it run once with their defaults.  A parameter no selected
    figure declares is an error (it would otherwise sweep nothing).

    Returns a lazy :class:`JobGrid` — sized, sliceable, and re-iterable
    like the list this function used to build, but generating cells on
    demand so a million-cell grid costs no memory until executed.
    """
    return JobGrid(figures, seeds=seeds, grid=grid)


#: Monotonic suffix keeping concurrent probes in one process distinct.
_PROBE_COUNTER = itertools.count()


def ensure_writable_dir(path: Path | str, purpose: str) -> Path:
    """Create ``path`` and prove it is writable, or raise a friendly error.

    Probing up front keeps unwritable output locations from surfacing as a
    raw ``OSError`` deep inside a pool worker halfway through a sweep.
    The probe name is PID+counter-unique so two sweeps probing the same
    directory concurrently cannot unlink each other's probe file.
    """
    directory = Path(path)
    probe = directory / (
        f".repro-write-probe.{os.getpid()}.{next(_PROBE_COUNTER)}"
    )
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ValueError(
            f"{purpose} directory {directory} is not writable ({exc}); "
            f"choose a writable location"
        ) from None
    return directory


def _trace_stem(figure: str, seed: int, index: int) -> str:
    return f"{figure.replace('-', '_')}.seed{seed}.job{index}"


def _run_relative(path: str | None, run_dir: Path | None) -> str | None:
    """``path`` relative to the run directory, so a reader of the manifest
    there needs nothing else to find it; as given without one."""
    if path is None or run_dir is None:
        return path
    return os.path.relpath(path, run_dir)


def _compute(
    payload: tuple[
        int, str, int, tuple[tuple[str, Any], ...], str | None,
        str | None, str, str | None, int, dict[str, str],
    ]
):
    """Worker: run one figure job and return (index, result dict).

    Runs inside whatever executor backend the sweep chose — a forked pool
    worker, a ``repro worker`` subprocess, or the supervising process
    itself.  When the payload carries a stream root, the rows are written
    as content-addressed JSONL chunks (see :mod:`.rowstream`) and the
    result references them (``row_chunks``/``rows_count``) instead of
    carrying the rows inline — the supervising process never holds them.
    The last element is the job's sweep-trace span context.
    """
    (index, figure, seed, params, trace_dir, telemetry_dir,
     key, stream_root, chunk_rows, span_ctx) = payload
    spec = get_spec(figure)
    observe = trace_dir is not None
    hub = obs.telemetry.TelemetryHub() if telemetry_dir is not None else None
    start = time.perf_counter()
    with collect_stats() as stats:
        if observe or hub is not None:
            # Stamping the engine-minted ids onto the child-side job span
            # is what correlates this process's Chrome trace with the
            # parent's sweep.events.jsonl.
            span_args = dict(params, **span_ctx)
            with obs.capture(
                metrics=observe, tracing=observe, telemetry=hub,
            ) as cap:
                with cap.tracer.span(
                    "runner.job", figure=figure, seed=seed, **span_args
                ):
                    rows = spec.run(seed=seed, **dict(params))
        else:
            rows = spec.run(seed=seed, **dict(params))
    verdict = spec.verdict(rows) if spec.verdict is not None else None
    result: dict[str, Any] = {
        "stats": stats.as_dict(),
        "wall_time_s": time.perf_counter() - start,
        "verdict": verdict,
        "worker_pid": os.getpid(),
    }
    if stream_root is not None:
        chunk_paths, count = write_row_chunks(
            stream_root, key, rows, chunk_rows
        )
        result["row_chunks"] = [str(path) for path in chunk_paths]
        result["rows_count"] = count
    else:
        result["rows"] = list(rows)
    stem = _trace_stem(figure, seed, index)
    if observe:
        result["metrics"] = cap.registry.snapshot()
        trace_path = Path(trace_dir) / f"{stem}.trace.json"
        cap.tracer.write_chrome(trace_path)
        result["trace_path"] = str(trace_path)
    if hub is not None:
        if verdict == "fail":
            # Freeze the fabric's recent history next to the bad verdict.
            hub.flight.snapshot(f"verdict.fail:{figure}")
        telemetry_path = Path(telemetry_dir) / f"{stem}.telemetry.json"
        hub.write_snapshot(telemetry_path)
        result["telemetry_path"] = str(telemetry_path)
        result["telemetry"] = hub.summary(
            sim_time_ns=stats.as_dict().get("sim_time_ns")
        )
    return index, result


def _resumable_keys(resume_from: RunManifest | Path | str | None) -> set[str]:
    """Cache keys an earlier run completed (status ok/cached)."""
    if resume_from is None:
        return set()
    if not isinstance(resume_from, RunManifest):
        resume_from = RunManifest.load(resume_from)
    return {record.key for record in resume_from.records if record.ok}


def run_jobs(
    jobs: Iterable[Job],
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[JobRecord, dict[str, Any]], None] | None = None,
    trace_dir: Path | str | None = None,
    *,
    backend: "str | ExecutorBackend | None" = None,
    stream_rows: Path | str | bool | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    telemetry_dir: Path | str | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    backoff: RetryPolicy | float | None = None,
    resume_from: RunManifest | Path | str | None = None,
    checkpoint: Path | str | None = None,
    sweeptrace: Path | str | None = None,
) -> SweepResult:
    """Execute ``jobs``, serving repeats from ``cache`` when given.

    ``jobs`` may be any iterable of :class:`Job` — a list, a lazy
    :class:`JobGrid` from :func:`expand_grid`, or a one-shot generator;
    it is consumed exactly once.

    **Executor backends:** ``backend`` selects how pending cells execute
    — a spec string (``"serial"``, ``"local-pool[:N]"``,
    ``"subprocess:N"``), an :class:`ExecutorBackend` instance, or
    ``None``/"auto", which picks for itself: ``workers`` <= 1 (or a
    single pending job) runs serially in-process, which keeps single-job
    invocations free of pool overhead and easy to debug; anything bigger
    uses the supervised local pool.  Setting ``timeout_s`` forces the
    pool even for one auto-selected job — a hung job can only be killed
    from outside its process.  Results, manifests, retries, and
    checkpoints are identical across backends (enforced by the
    backend-conformance suite); each computed record notes its backend,
    and the manifest's ``workers`` is the chosen backend's parallelism,
    not the requested ``workers``.

    **Streaming rows:** ``stream_rows`` routes each job's rows through
    content-addressed chunked JSONL files (``chunk_rows`` rows per chunk,
    see :mod:`repro.runner.rowstream`) instead of shipping them through
    the supervising process — peak memory stays flat in grid size.  Pass
    a directory, or ``True`` to use ``cache.rows_dir()`` (requires
    ``cache``).  Outcomes then carry :class:`LazyRows` (iterate/render
    identically to eager rows) and records list their ``row_chunks``.

    **Fault tolerance** (see :mod:`repro.runner.supervisor`): a raising
    figure, a job exceeding ``timeout_s``, or a worker process dying
    yields a record with ``status`` ``"failed"``/``"timeout"`` (plus
    ``error``/``traceback``) instead of aborting the sweep.  ``retries``
    grants each job that many additional attempts, spaced by a
    deterministic exponential backoff (``backoff`` is either a base delay
    in seconds or a full :class:`RetryPolicy`); retries rerun the exact
    same payload, so simulation seeds and results are never perturbed.

    **Checkpoint/resume:** ``checkpoint`` names a manifest file flushed
    atomically once for all cache hits, then after every computed job,
    so an interrupted sweep loses at most the in-flight work.
    ``resume_from`` takes a manifest (object or path) from an earlier run
    and skips every cell it already completed, re-serving its rows from
    ``cache`` — cells whose rows are not cached are recomputed, and
    failed cells always rerun.

    ``trace_dir`` enables span tracing per job and writes one Chrome
    trace-event file, ``<stem>.trace.json``, per computed job into it;
    each simulator ``run`` in the job becomes one ``sim.run`` span
    carrying its end time and event count.  It also embeds a
    ``repro.obs`` metrics snapshot in the manifest.  Cached jobs are
    *not* recomputed to obtain observability data.

    **In-band network telemetry:** ``telemetry_dir`` activates a
    :class:`repro.obs.telemetry.TelemetryHub` per computed job and
    writes one ``<stem>.telemetry.json`` snapshot (ring samplers +
    flight recorder) into it; a digest lands on each job record
    (``telemetry``/``telemetry_path``) and surfaces in ``repro report``'s
    "Network telemetry" section.  A failing figure verdict snapshots the
    flight recorder automatically.

    With a ``checkpoint``, records name their ``trace_path`` and
    ``telemetry_path`` relative to the checkpoint's directory, the run
    directory, so the manifest written there locates every file.

    **One lifecycle stream:** the engine reports every lifecycle fact —
    submission, queueing, each execution attempt with its outcome,
    retries with their backoff delays, worker spawn/ready/death,
    dispatch, checkpoint writes, cache hits — once, to a
    :class:`repro.obs.sweeptrace.SweepTraceRecorder` (schema
    ``repro.obs/sweeptrace/v1``, one deterministic trace id per grid,
    one span id per job).  Everything else is a fold over that stream:
    computed records carry ``queue_s``/``compute_s``/``attempt_timings``
    and every record its ``span``; ``progress(record, status)`` is called
    once per completed job with the :mod:`repro.obs.status` snapshot
    (counts, retries, running cells, ETA) that already counts it; and
    :attr:`SweepResult.status` is the final snapshot.  ``sweeptrace``
    names a ``sweep.events.jsonl`` file to append the stream to, read
    by ``repro obs tail`` and ``repro obs timeline``; without it no file
    is written.  Job payloads, cache keys and rows are the same either
    way.
    """
    from ..obs.sweeptrace import SweepTraceRecorder

    jobs = list(jobs)
    workers = workers if workers is not None else (os.cpu_count() or 1)
    start = time.perf_counter()
    stream_root: str | None = None
    if stream_rows:
        if isinstance(stream_rows, (str, Path)):
            stream_root = str(ensure_writable_dir(stream_rows, "row stream"))
        elif cache is not None:
            stream_root = str(
                ensure_writable_dir(cache.rows_dir(), "row stream")
            )
        else:
            raise ValueError(
                "stream_rows=True streams into the cache's row store; pass "
                "a cache, or give stream_rows an explicit directory"
            )
    if trace_dir is not None:
        trace_dir = str(ensure_writable_dir(trace_dir, "trace output"))
    if telemetry_dir is not None:
        telemetry_dir = str(
            ensure_writable_dir(telemetry_dir, "telemetry output")
        )
    run_dir: Path | None = None
    if checkpoint is not None:
        checkpoint = Path(checkpoint)
        run_dir = ensure_writable_dir(checkpoint.parent, "manifest checkpoint")
    if sweeptrace is not None:
        sweeptrace = Path(sweeptrace)
        ensure_writable_dir(sweeptrace.parent, "sweep trace")
    if isinstance(backoff, RetryPolicy):
        policy = backoff
    else:
        policy = RetryPolicy(
            retries=retries,
            timeout_s=timeout_s,
            **({"backoff_base_s": backoff} if backoff is not None else {}),
        )
    chosen = resolve_backend(backend, workers=workers)
    resume_keys = _resumable_keys(resume_from)
    keys = [job.key() for job in jobs]
    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    recorder = SweepTraceRecorder(keys, sweeptrace)

    def _flush_checkpoint() -> None:
        if checkpoint is None:
            return
        flush_start = time.perf_counter()
        manifest = RunManifest(
            workers=chosen.workers,
            cache_dir=str(cache.root) if cache is not None else None,
            wall_time_s=time.perf_counter() - start,
            records=[o.record for o in outcomes if o is not None],
        )
        tmp = checkpoint.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(manifest.to_json(indent=None) + "\n")
        os.replace(tmp, checkpoint)
        recorder.checkpoint(
            done=sum(1 for o in outcomes if o is not None),
            dur_s=time.perf_counter() - flush_start,
        )

    def _report(record: JobRecord) -> None:
        if progress is not None:
            progress(record, recorder.status.snapshot())

    pending: list[
        tuple[
            int, str, int, tuple[tuple[str, Any], ...], str | None,
            str | None, str, str | None, int, dict[str, str],
        ]
    ] = []
    hits: list[int] = []
    for index, (job, key) in enumerate(zip(jobs, keys)):
        rows = None
        hit_start = time.perf_counter()
        if cache is not None and (resume_from is None or key in resume_keys):
            # On resume only previously-completed cells may be served from
            # cache; failed cells must recompute even if some stale entry
            # exists under their key.
            rows = cache.get(key)
        if rows is not None:
            # Verdicts are a pure function of the rows, so cache hits are
            # re-judged rather than recomputed.
            judge = get_spec(job.figure).verdict
            verdict = judge(rows) if judge is not None else None
            # The record carries the *actual* cache-service time (lookup
            # + re-judging), not a hard-coded 0.0: consumers computing
            # ETAs must exclude hits by their ``cached``/``status``
            # marking, not rely on a zero sentinel deflating the mean.
            hit_wall = time.perf_counter() - hit_start
            record = JobRecord(
                figure=job.figure,
                seed=job.seed,
                params=job.params_dict,
                key=key,
                cached=True,
                wall_time_s=hit_wall,
                rows=len(rows),
                verdict=verdict,
                status=STATUS_CACHED,
                span=recorder.span_for(index),
            )
            recorder.cache_hit(index, job.figure, job.seed, hit_wall)
            outcomes[index] = JobOutcome(job=job, rows=rows, record=record)
            hits.append(index)
        else:
            recorder.job_submitted(
                index, job.figure, job.seed, job_label(job),
                position=len(pending),
            )
            pending.append((
                index, job.figure, job.seed, job.params, trace_dir,
                telemetry_dir, key, stream_root, chunk_rows,
                recorder.span_context(index),
            ))
    if chosen is None:
        # Auto: tiny sweeps run serially in-process (no pool overhead,
        # trivially debuggable); timeouts force the pool — a hung job can
        # only be killed from outside its process.
        inline = min(workers, len(pending)) <= 1 and policy.timeout_s is None
        chosen = resolve_backend(
            "serial" if inline else "local-pool", workers=max(workers, 1)
        )
    if hits:
        # One checkpoint covers every cache hit.  It is written before
        # any hit is reported, so whatever progress announces is
        # already on disk.
        _flush_checkpoint()
        for index in hits:
            _report(outcomes[index].record)

    def _finish(index: int, result: dict[str, Any]) -> None:
        job = jobs[index]
        status = result.get("status", STATUS_OK)
        if status in OK_STATUSES:
            # Failed/timed-out attempts closed inside the backend
            # (charge_failure); successes close here, where the engine
            # first sees the result.
            recorder.attempt_end(
                index,
                outcome="ok",
                wall_s=result.get("wall_time_s"),
                pid=result.get("worker_pid"),
                final=True,
            )
        record = JobRecord(
            figure=job.figure,
            seed=job.seed,
            params=job.params_dict,
            key=keys[index],
            cached=False,
            wall_time_s=result.get("wall_time_s", 0.0),
            rows=0,
            backend=chosen.name,
            attempts=result.get("attempts", 1),
            **recorder.timings_for(index),
        )
        rows: Rows | LazyRows
        if status in OK_STATUSES:
            if "row_chunks" in result:
                # The worker streamed the rows to disk; only paths and a
                # count cross back into the supervising process.
                rows = LazyRows(result["row_chunks"], result["rows_count"])
                if cache is not None:
                    cache.put_streamed(
                        keys[index], result["row_chunks"],
                        result["rows_count"],
                        figure=job.figure, seed=job.seed,
                        params=job.params_dict,
                    )
            else:
                rows = Rows(result["rows"])
                if cache is not None:
                    cache.put(
                        keys[index], rows,
                        figure=job.figure, seed=job.seed,
                        params=job.params_dict,
                    )
            record.rows = len(rows)
            record.stats = result["stats"]
            record.metrics = result.get("metrics")
            record.trace_path = _run_relative(
                result.get("trace_path"), run_dir
            )
            record.verdict = result.get("verdict")
            record.telemetry = result.get("telemetry")
            record.telemetry_path = _run_relative(
                result.get("telemetry_path"), run_dir
            )
            record.row_chunks = result.get("row_chunks")
        else:
            # Failed or timed out after exhausting the retry budget: the
            # cell contributes an empty Rows and a diagnostic record, and
            # the sweep carries on.
            rows = Rows()
            record.status = status
            record.error = result.get("error")
            record.traceback = result.get("traceback")
        outcomes[index] = JobOutcome(job=job, rows=rows, record=record)
        _flush_checkpoint()
        _report(record)

    if pending:
        tasks = [
            Task(
                index=payload[0],
                payload=payload,
                key=keys[payload[0]],
                figure=payload[1],
            )
            for payload in pending
        ]
        recorder.dispatch(chosen.name, chosen.workers)
        chosen.run(tasks, _compute, policy, _finish, on_event=recorder.handle)

    done = [outcome for outcome in outcomes if outcome is not None]
    manifest = RunManifest(
        workers=chosen.workers,
        cache_dir=str(cache.root) if cache is not None else None,
        wall_time_s=time.perf_counter() - start,
        records=[outcome.record for outcome in done],
    )
    if pending or not hits:
        # An all-hit sweep's checkpoint is already final.
        _flush_checkpoint()
    recorder.finalize(wall_s=manifest.wall_time_s)
    return SweepResult(
        outcomes=done, manifest=manifest, status=recorder.status.snapshot()
    )
