"""The four benchmark workloads.

A workload is built from the benchmark seed and a scratch directory, and
offers four steps:

- ``prepare()`` is the set-up counted in ``setup_s``: the cache prefill
  for ``sweep-warm``, nothing elsewhere;
- ``reference()`` computes, untimed, the rows every cell must reproduce,
  plus any named one-off checks (the golden snapshots);
- ``iterate(traced)`` is one timed iteration;
- ``finish(output)`` runs untimed after each iteration and returns one
  ``(ok, rows)`` pair per cell plus the layer counts read off the
  program's public results.

A *cell* is one (figure, seed, parameters) computation, and one cell's
output check is one operation behind ``error_rate``.  Every call into the
program goes through a module attribute (``mlnet.run_deployment``,
``runner.run_jobs``), so the traced pass can wrap it at runtime.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
from pathlib import Path

from repro import mlnet, runner
from repro.figures import get_spec
from repro.obs import sweeptrace
from repro.simcore import Simulator
from repro.simcore.units import MS

SWEEP_FIGURE = "fig4-delay"
SWEEP_PARAMS = {"cycles": 60}
SWEEP_CELLS = 64
SWEEP_BACKEND = "subprocess:2"


class Fig6Heavy:
    """ROADMAP's heavy point: defect detection on the ring, 256 clients.

    The kernel and the net model do almost all the work (607 059 events
    and 178 412 switch hops at seed 0); there is no runner and no disk.
    """

    name = "fig6-heavy"
    iterations = 20
    app = mlnet.DEFECT_DETECTION
    clients = 256
    duration_ns = 400 * MS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        pass

    def reference(self):
        # The heap scheduler is the kernel's reference backend; the timed
        # runs use the default calendar queue and must match it exactly.
        return [[self._point("heap")]], []

    def iterate(self, traced: bool):
        return self._point(None)

    def finish(self, row):
        return [(True, [row])], {"frames_measured": row["frames_measured"]}

    def _point(self, scheduler: str | None) -> dict:
        sim = Simulator(seed=self.seed, scheduler=scheduler)
        # The builder ``TOPOLOGY_BUILDERS["ring"]`` names.
        deployment = mlnet.build_ring_deployment(sim, self.clients, self.app)
        mean_ms, p99_ms, frames = mlnet.run_deployment(
            deployment, self.app, sim, duration_ns=self.duration_ns
        )
        return {
            "app": self.app.name,
            "topology": "ring",
            "clients": self.clients,
            "mean_latency_ms": mean_ms,
            "p99_latency_ms": p99_ms,
            "frames_measured": frames,
        }


class FiguresSmall:
    """The rest of ``repro all`` at paper defaults: component models
    (corpus counting, the eBPF/host-stack cost model, the P4 pipeline and
    PROFINET) with few switch hops."""

    name = "figures-small"
    iterations = 25
    figures = ("fig1", "fig4-delay", "fig4-jitter", "fig5")
    golden = ("fig4-delay", "fig4-jitter", "fig5")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        pass

    def reference(self):
        # The golden cases are fixed at their own seed 0, whatever the
        # benchmark seed; the untimed first run is the per-seed reference.
        from tests.golden.test_golden_figures import (
            compute_summary,
            diff_summaries,
            golden_path,
        )

        checks = []
        for figure in self.golden:
            differences = diff_summaries(
                json.loads(golden_path(figure).read_text()),
                compute_summary(figure),
            )
            checks.append({
                "name": f"golden {figure}",
                "ok": not differences,
                "detail": "; ".join(differences),
            })
        return self.iterate(False), checks

    def iterate(self, traced: bool):
        return [get_spec(figure).run(seed=self.seed) for figure in self.figures]

    def finish(self, output):
        return [(True, rows) for rows in output], {}


class _Sweep:
    """64 ``fig4-delay`` cells (``cycles=60``, seeds ``64N..64N+63``) run
    through ``run_jobs`` on two subprocess workers, streaming rows into a
    result cache and checkpointing the manifest after every cell."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = range(SWEEP_CELLS * seed, SWEEP_CELLS * (seed + 1))
        self.workdir = workdir
        self._events: Path | None = None

    def prepare(self) -> None:
        pass

    def reference(self):
        spec = get_spec(SWEEP_FIGURE)
        return [spec.run(seed=seed, **SWEEP_PARAMS) for seed in self.seeds], []

    def _sweep(self, directory: Path, traced: bool):
        self._events = (
            directory / sweeptrace.EVENTS_FILENAME if traced else None
        )
        jobs = runner.expand_grid(
            [SWEEP_FIGURE],
            seeds=self.seeds,
            grid={name: [value] for name, value in SWEEP_PARAMS.items()},
        )
        return runner.run_jobs(
            jobs,
            workers=2,
            backend=SWEEP_BACKEND,
            cache=runner.ResultCache(directory / "cache"),
            stream_rows=True,
            checkpoint=directory / "manifest.json",
            sweeptrace=self._events,
        )

    def finish(self, result):
        cells = [(o.record.ok, list(o.rows)) for o in result.outcomes]
        manifest = result.manifest
        counts = {
            "cells": len(manifest.records),
            "cache_hits": manifest.cache_hits,
            "cache_misses": manifest.cache_misses,
            "retries": sum(r.attempts - 1 for r in manifest.records),
            "failed_cells": manifest.failed,
        }
        if self._events is not None:
            counts.update(sweeptrace_counts(self._events))
        return cells, counts


class SweepCold(_Sweep):
    """Every iteration sweeps into an empty cache: runner spawn, dispatch,
    streamed-row writes, cache puts and checkpoints dominate, and the net
    model is bypassed."""

    name = "sweep-cold"
    iterations = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._runs = itertools.count()

    def iterate(self, traced: bool):
        self._directory = self.workdir / f"cold-{next(self._runs)}"
        return self._sweep(self._directory, traced)

    def finish(self, result):
        outcome = super().finish(result)
        shutil.rmtree(self._directory)
        return outcome


class SweepWarm(_Sweep):
    """The same 64 cells against the cache filled during set-up: cache
    reads, manifest checkpoints and lifecycle bookkeeping only."""

    name = "sweep-warm"
    iterations = 300

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._directory = workdir / "warm"

    def prepare(self) -> None:
        shutil.rmtree(self._directory, ignore_errors=True)
        result = self._sweep(self._directory, traced=False)
        if not result.ok or result.manifest.cache_misses != SWEEP_CELLS:
            raise RuntimeError("sweep-warm prefill did not compute every cell")

    def iterate(self, traced: bool):
        return self._sweep(self._directory, traced)


def sweeptrace_counts(path: Path) -> dict[str, float]:
    """Critical-path phases, worker start-up and event count of one
    ``sweep.events.jsonl``, folded with the public timeline analyzer."""
    events = sweeptrace.load_events(path)
    timeline = sweeptrace.build_timeline(events)
    phases = sweeptrace.phase_breakdown(sweeptrace.critical_path(timeline))
    spawns = [
        track.ready - track.spawned
        for track in timeline.worker_tracks.values()
        if track.spawned is not None and track.ready is not None
    ]
    counts = {f"cp_{phase}_s": seconds for phase, seconds in phases.items()}
    counts["worker_spawn_ms"] = 1e3 * statistics.fmean(spawns) if spawns else 0.0
    counts["sweeptrace_events"] = len(events)
    return counts


WORKLOADS = {
    workload.name: workload
    for workload in (Fig6Heavy, FiguresSmall, SweepCold, SweepWarm)
}
