"""Unified observability: metrics registry and span tracing.

Two facets, one activation model:

- **Metrics** — labelled :class:`Counter` cells and :class:`Histogram`
  instruments in a :class:`MetricsRegistry`, which sums the cells of a
  key at snapshot (:mod:`repro.obs.metrics`).
- **Tracing** — a :class:`Tracer` of spans and instants, exportable as
  Chrome trace-event JSON (Perfetto / ``chrome://tracing``)
  (:mod:`repro.obs.tracing`).  Each simulator ``run`` records one
  ``sim.run`` span with its end time and cumulative event count.

Everything is off by default and scoped with :func:`capture`
(:mod:`repro.obs.runtime`); disabled call sites reduce to no-ops.  The
experiment runner activates a capture per job when asked
(``repro sweep --out-dir RUN --trace``) and embeds the snapshots in the
run manifest; ``repro obs manifest.json`` renders them back.

The rest is imported lazily, on first ``repro.obs.<name>`` access or
an explicit import, so a process that never uses it pays nothing for it:

- :mod:`repro.obs.telemetry` — the in-band telemetry plane of the
  simulated network (:class:`~repro.obs.telemetry.TelemetryHub`, its
  ring samplers and flight recorder).  ``capture(telemetry=True)``
  imports it; outside a capture with a hub, :func:`get_telemetry`
  returns the null hub from :mod:`repro.obs.runtime`.

The cross-run companions build on the per-run layer:

- :mod:`repro.obs.report` — aggregate one finished run's manifest, rows,
  metrics, and verdicts into self-contained HTML + markdown reports.
- :mod:`repro.obs.sweeptrace` — the sweep's one lifecycle event stream
  (``sweep.events.jsonl``), its timeline and critical path
  (``repro obs timeline``).
- :mod:`repro.obs.status` — the fold over those events that gives a
  sweep's counts, retries, running cells and ETA: the CLI progress line,
  ``SweepResult.status`` and ``repro obs tail [--follow]`` all read it.
"""

import importlib

from .metrics import (
    DEFAULT_NS_EDGES,
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    fixed_width_edges,
)
from .runtime import (
    ObsCapture,
    capture,
    enabled,
    get_registry,
    get_telemetry,
    get_tracer,
)
from .tracing import NULL_TRACER, NullTracer, SIM_TRACK, Span, Tracer

#: Submodules resolved on first attribute access.
_LAZY_SUBMODULES = ("report", "status", "sweeptrace", "telemetry")


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_NS_EDGES",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "ObsCapture",
    "SIM_TRACK",
    "Span",
    "Tracer",
    "capture",
    "enabled",
    "fixed_width_edges",
    "get_registry",
    "get_telemetry",
    "get_tracer",
]
