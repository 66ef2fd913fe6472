"""The traced pass: spans around each layer's public functions, wrapped
from outside the program at runtime, folded into per-layer metrics.

A span is ``[name, start, end, parent, iteration]``.  Spans stay in
memory and are written out when the pass ends.  A span's self time is
its duration minus the time its child spans cover, so ``simcore.run``
nests inside ``mlnet.run_deployment``, which nests inside the iteration.
Every ``*_s`` metric of a wrapped function is its self time per
iteration, except ``runner.run_jobs_s``: that one is inclusive, because
the sweep's critical-path phases (``runner.cp_*_s``), not child spans,
break it down.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

from repro import figures, mlnet, runner
from repro.figures import FigureSpec
from repro.net.switch import Switch
from repro.obs.sweeptrace import PHASES
from repro.simcore import Simulator
from repro.simcore.stats import collect

from workloads import FiguresSmall

#: Kernel microbenchmark shapes.
TIMER_CHAIN_EVENTS = 200_000
BURST_INSTANTS = 200
BURST_WIDTH = 1000
PROBE_REPEATS = 3

#: Spans reported as self time per iteration (``<name>_s``).
SELF_TIME_SPANS = (
    "mlnet.build",
    "mlnet.run_deployment",
    "corpus.generate",
    "corpus.analyze",
    "reflection.variant_sweep",
    "reflection.flow_scaling",
    "instaplc.run_fig5",
    *(f"figures.{figure}" for figure in FiguresSmall.figures),
)


class Ledger:
    """Spans and exact counts recorded around the program's layers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: Per-iteration exact counts (kernel events, switch hops).
        self.counts: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._iteration: int | None = None
        self._switches: list[Switch] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner: Any, attr: str, name: str | Callable[..., str]) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper; ``name`` may
        derive the span name from the call's arguments."""
        original = getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [
                name(*args) if callable(name) else name,
                0.0,
                0.0,
                self._stack[-1] if self._stack else None,
                self._iteration,
            ]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        self._patch(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every layer boundary; restore the originals on exit."""
        original_init = Switch.__init__

        def switch_init(switch: Switch, *args: Any, **kwargs: Any) -> None:
            original_init(switch, *args, **kwargs)
            self._switches.append(switch)

        self._patch(Switch, "__init__", switch_init)
        self.wrap(Simulator, "run", "simcore.run")
        self.wrap(mlnet, "build_ring_deployment", "mlnet.build")
        self.wrap(mlnet, "run_deployment", "mlnet.run_deployment")
        self.wrap(figures, "generate_corpus", "corpus.generate")
        self.wrap(figures, "analyze_corpus", "corpus.analyze")
        self.wrap(figures, "run_variant_sweep", "reflection.variant_sweep")
        self.wrap(figures, "run_flow_scaling", "reflection.flow_scaling")
        self.wrap(figures, "run_fig5", "instaplc.run_fig5")
        self.wrap(FigureSpec, "run", lambda spec, *_: f"figures.{spec.name}")
        self.wrap(runner, "run_jobs", "runner.run_jobs")
        self.wrap(runner, "expand_grid", "runner.expand_grid")
        self.wrap(runner.ResultCache, "get", "runner.cache_get")
        self.wrap(runner.ResultCache, "put", "runner.cache_put")
        self.wrap(runner.ResultCache, "put_streamed", "runner.cache_put")
        try:
            yield self
        finally:
            while self._patches:
                setattr(*self._patches.pop())

    @contextmanager
    def iteration(self, index: int):
        """Attribute spans and counts made inside the block to ``index``."""
        self._iteration = index
        self._switches = []
        try:
            with collect() as stats:
                yield
        finally:
            self._iteration = None
        self.counts.append({
            "events_executed": stats.events_executed,
            "events_scheduled": stats.events_scheduled,
            "switch_hops": sum(s.forwarded_frames for s in self._switches),
        })
        self._switches = []


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def kernel_probes() -> dict[str, list[float]]:
    """Kernel-only ns per event through the public ``schedule``/``run``:
    a timer chain (each event schedules the next) and same-instant bursts
    (every event of an instant scheduled up front)."""

    def timer_chain() -> float:
        sim = Simulator(seed=0)
        remaining = [TIMER_CHAIN_EVENTS]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(tick, after=1)

        start = perf_counter()
        sim.schedule(tick, after=1)
        sim.run()
        elapsed = perf_counter() - start
        if sim.stats.events_executed != TIMER_CHAIN_EVENTS:
            raise RuntimeError("timer-chain probe lost events")
        return elapsed * 1e9 / TIMER_CHAIN_EVENTS

    def burst() -> float:
        sim = Simulator(seed=0)

        def noop() -> None:
            pass

        start = perf_counter()
        for instant in range(1, BURST_INSTANTS + 1):
            for _ in range(BURST_WIDTH):
                sim.schedule(noop, at=instant)
        sim.run()
        elapsed = perf_counter() - start
        events = BURST_INSTANTS * BURST_WIDTH
        if sim.stats.events_executed != events:
            raise RuntimeError("burst probe lost events")
        return elapsed * 1e9 / events

    return {
        "simcore.timer_chain_ns_per_event": [
            timer_chain() for _ in range(PROBE_REPEATS)
        ],
        "simcore.burst_ns_per_event": [burst() for _ in range(PROBE_REPEATS)],
    }


def layer_metrics(
    ledger: Ledger,
    walls: list[float],
    counts: list[dict[str, float]],
    probes: dict[str, list[float]],
) -> dict[str, tuple[list[float], str]]:
    """Per-layer samples (one per iteration, or per probe repeat) and
    their unit, keyed by metric name."""
    n = len(walls)
    child = [0.0] * len(ledger.spans)
    for _, start, end, parent, _ in ledger.spans:
        if parent is not None:
            child[parent] += end - start
    self_s = [defaultdict(float) for _ in range(n)]
    calls: list[dict[str, list[float]]] = [{} for _ in range(n)]
    covered = [0.0] * n
    for index, (name, start, end, parent, it) in enumerate(ledger.spans):
        if it is None:
            continue
        self_s[it][name] += end - start - child[index]
        calls[it].setdefault(name, []).append(end - start)
        if parent is None:
            covered[it] += end - start
    per = [{**ledger.counts[i], **counts[i]} for i in range(n)]

    def count(key: str) -> list[float]:
        return [c.get(key, 0) for c in per]

    def mean_call_ms(name: str) -> list[float]:
        return [
            1e3 * statistics.fmean(c[name]) if name in c else 0.0
            for c in calls
        ]

    run_s = [s["simcore.run"] for s in self_s]
    events = count("events_executed")
    hops = count("switch_hops")
    run_jobs_s = [sum(c.get("runner.run_jobs", [])) for c in calls]
    cells = count("cells")
    hits, misses = count("cache_hits"), count("cache_misses")
    metrics: dict[str, tuple[list[float], str]] = {
        "simcore.events_executed": (events, "count"),
        "simcore.events_scheduled": (count("events_scheduled"), "count"),
        "simcore.run_s": (run_s, "s"),
        "simcore.run_share": ([_ratio(r, w) for r, w in zip(run_s, walls)], "ratio"),
        "simcore.ns_per_event": (
            [_ratio(1e9 * r, e) for r, e in zip(run_s, events)], "ns"
        ),
        "net.switch_hops": (hops, "count"),
        "net.events_per_hop": (
            [_ratio(e, h) for e, h in zip(events, hops)], "ratio"
        ),
        "net.ns_per_hop": ([_ratio(1e9 * r, h) for r, h in zip(run_s, hops)], "ns"),
        "mlnet.frames_measured": (count("frames_measured"), "count"),
        "runner.run_jobs_s": (run_jobs_s, "s"),
        "runner.expand_grid_ms": (mean_call_ms("runner.expand_grid"), "ms"),
        "runner.cache_get_ms": (mean_call_ms("runner.cache_get"), "ms"),
        "runner.cache_put_ms": (mean_call_ms("runner.cache_put"), "ms"),
        "runner.cache_hits": (hits, "count"),
        "runner.cache_misses": (misses, "count"),
        "runner.cache_hit_ratio": (
            [_ratio(h, h + m) for h, m in zip(hits, misses)], "ratio"
        ),
        "runner.worker_spawn_ms": (count("worker_spawn_ms"), "ms"),
        "runner.overhead_per_cell_ms": (
            [
                _ratio(1e3 * (r - c), k)
                for r, c, k in zip(run_jobs_s, count("cp_compute_s"), cells)
            ],
            "ms",
        ),
        "runner.retries": (count("retries"), "count"),
        "runner.failed_cells": (count("failed_cells"), "count"),
        "obs.sweeptrace_events": (count("sweeptrace_events"), "count"),
        "obs.self_time_coverage": (
            [_ratio(c, w) for c, w in zip(covered, walls)], "ratio"
        ),
    }
    for phase in PHASES:
        metrics[f"runner.cp_{phase}_s"] = (count(f"cp_{phase}_s"), "s")
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_s"] = ([s[name] for s in self_s], "s")
    for name, samples in probes.items():
        metrics[name] = (samples, "ns")
    return metrics

