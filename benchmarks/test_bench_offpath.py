"""E-offpath — what each opt-in observability plane costs when it is on.

Three planes observe a run and are off by default: **capture** (metrics +
tracing, ``obs.capture()``), **telemetry** (ring samplers and the
flight recorder) and **sweeptrace** (the sweep lifecycle events written to a
file).  Off, capture and telemetry are structurally null: no capture
scope means null registries and tracers, and components cache a
``None`` telemetry probe.  The engine always folds its lifecycle events
in memory (status and manifest timings come from them); off, it writes
no events file.  Any cost the off path did add would
show as ``wall_s`` on the ``fig6-heavy`` and ``sweep-cold`` workloads of
the benchmark of record (``perf/``), which is where wall-time
regressions are judged.

This benchmark times each plane *on* against its own *off* run, on the
workload whose cost it adds to, alternating off and on within each round:

- capture — a 200k-event timer chain (the event loop);
- telemetry — one fig6 point, leaf-spine, 64 clients, 400 ms (the
  per-hop network model);
- sweeptrace — a serial 4 x ``fig4-delay`` sweep (the sweep control
  plane, whose cost scales with lifecycle events, not kernel weight).

It asserts that turning a plane on never changes the output, and that
each on/off wall ratio stays under a loose hard bound that only a real
per-event regression reaches, even on a noisy shared runner.  Design
targets are reported as warnings, never failures.
"""

import time
import warnings

from conftest import print_table

from repro import obs
from repro.mlnet import OBJECT_IDENTIFICATION, run_point
from repro.obs.sweeptrace import build_timeline, load_events
from repro.runner import SerialBackend, make_job, run_jobs
from repro.simcore import Simulator
from repro.simcore.units import MS

#: Timer chain: large enough to dominate setup, well under a second.
EVENTS = 200_000
#: One mid-scale fig6 point.
CLIENTS = 64
TOPOLOGY = "leaf-spine"
DURATION_NS = 400 * MS
#: Enough sweep jobs for per-job lifecycle overhead to show.
SEEDS = 4
CYCLES = 200
ROUNDS = 3

#: Hard bound on each plane's on/off wall ratio.
HARD_RATIO = {"capture": 3.0, "telemetry": 4.0, "sweeptrace": 3.0}
#: Design target per plane, warned about (not failed) when exceeded.
TARGET_RATIO = {"capture": 1.5, "telemetry": 2.0, "sweeptrace": 1.5}


def _timer_chain() -> int:
    """Drain ``EVENTS`` self-rescheduling callbacks through one simulator."""
    sim = Simulator()
    remaining = [EVENTS]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule(tick, after=1)

    sim.schedule(tick, after=1)
    sim.run()
    return sim.stats.events_executed


def _fig6() -> tuple:
    point = run_point(
        OBJECT_IDENTIFICATION, TOPOLOGY, CLIENTS,
        duration_ns=DURATION_NS, seed=0,
    )
    return point.mean_latency_ms, point.p99_latency_ms, point.frames_measured


def _sweep(sweeptrace=None) -> list[str]:
    result = run_jobs(
        [
            make_job("fig4-delay", seed=seed, params={"cycles": CYCLES})
            for seed in range(SEEDS)
        ],
        backend=SerialBackend(),
        sweeptrace=sweeptrace,
    )
    return [outcome.rows.to_csv() for outcome in result.outcomes]


#: Off-mode workloads, one table column each.
WORKLOADS = {"timer chain": _timer_chain, "fig6": _fig6, "sweep": _sweep}
OFF_ON = ("off", "on")


def _capture() -> int:
    with obs.capture():
        return _timer_chain()


def _telemetry() -> tuple:
    with obs.capture(metrics=False, tracing=False, telemetry=True) as cap:
        point = _fig6()
    assert any(
        ring.name == "net.queue.depth" and ring.samples
        for ring in cap.telemetry.samplers.values()
    )
    return point


def _interleaved(planes):
    """Best-of-``ROUNDS`` wall time and output per plane, off and on.

    Each round times a plane's off workload and then its on workload, so
    machine drift during the run lands on both sides of a ratio alike.
    """
    best = {(plane, side): float("inf") for plane in planes for side in OFF_ON}
    outputs = {}
    for _ in range(ROUNDS):
        for plane, (workload, on_fn) in planes.items():
            for side, fn in zip(OFF_ON, (WORKLOADS[workload], on_fn)):
                t0 = time.perf_counter()
                outputs[plane, side] = fn()
                elapsed = time.perf_counter() - t0
                best[plane, side] = min(best[plane, side], elapsed)
    return best, outputs


def test_bench_offpath(benchmark, tmp_path):
    events_path = tmp_path / "sweep.events.jsonl"
    planes = {
        "capture": ("timer chain", _capture),
        "telemetry": ("fig6", _telemetry),
        "sweeptrace": ("sweep", lambda: _sweep(sweeptrace=events_path)),
    }
    best, outputs = benchmark.pedantic(
        _interleaved, args=(planes,), rounds=1, iterations=1
    )
    assert outputs["capture", "off"] == EVENTS

    off_ms = {
        workload: f"{best[plane, 'off'] * 1e3:.0f}"
        for plane, (workload, _) in planes.items()
    }
    rows = [["off", *(off_ms[w] for w in WORKLOADS), "1.00x"]]
    ratios = {}
    for plane, (workload, _) in planes.items():
        # The plane observes without perturbing: same seed, same output.
        assert outputs[plane, "on"] == outputs[plane, "off"], (
            f"{plane} changed the {workload} output"
        )
        ratios[plane] = best[plane, "on"] / best[plane, "off"]
        rows.append([
            plane,
            *(f"{best[plane, 'on'] * 1e3:.0f}" if w == workload else "-"
              for w in WORKLOADS),
            f"{ratios[plane]:.2f}x",
        ])
    print_table(
        f"Off-path planes — wall ms per workload (best of {ROUNDS}, "
        f"off and on alternating)",
        ["config", *WORKLOADS, "vs off"],
        rows,
    )

    # The traced sweep recorded a full event stream.
    events = load_events(events_path)
    assert events[0]["ev"] == "sweep_start"
    assert events[-1]["ev"] == "sweep_end"
    assert len(build_timeline(events).attempts) == SEEDS

    for plane, ratio in ratios.items():
        if ratio >= TARGET_RATIO[plane]:
            warnings.warn(
                f"{plane}/off ratio {ratio:.2f}x exceeds the "
                f"{TARGET_RATIO[plane]:.1f}x design target (non-blocking; "
                f"hard bound {HARD_RATIO[plane]:.1f}x)",
                stacklevel=1,
            )
    over = {p: r for p, r in ratios.items() if r >= HARD_RATIO[p]}
    assert not over, f"on/off ratios over their hard bound: {over}"
