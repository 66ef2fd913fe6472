"""Scoped activation of the observability layer.

The rest of the codebase never holds a registry or tracer directly — it
asks this module for the *active* one::

    from repro.obs import get_registry, get_tracer

    self._m_crashes = get_registry().counter("plc.crashes", plc=name)
    with get_tracer().span("figure.compute", figure=name):
        ...

By default nothing is active: :func:`get_registry` returns the
:class:`~repro.obs.metrics.NullRegistry`, whose counter cells still count
but are filed nowhere and whose histograms do nothing,
:func:`get_tracer` the :class:`~repro.obs.tracing.NullTracer`, whose spans
are no-ops, and :func:`get_telemetry` this module's
:class:`NullTelemetry`, whose probe factories return ``None``.
:func:`capture` installs live instances for the duration of a ``with``
block (the experiment runner wraps each job in one); its registry sums
each key's cells at snapshot::

    with capture() as obs:
        rows = spec.run(seed=0)
    print(obs.registry.snapshot())
    obs.tracer.write_chrome("job.trace.json")

Captures nest: the innermost block wins, and the previous state is restored
on exit.  Each :meth:`~repro.simcore.simulator.Simulator.run` inside a
block with tracing on records one ``sim.run`` span.  The in-band
telemetry plane (:mod:`repro.obs.telemetry`) is imported only when a
capture is asked for a hub.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .metrics import NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.link import Port
    from .telemetry import TelemetryHub


class NullTelemetry:
    """The inactive telemetry plane: the port probe factory returns ``None``.

    Ports cache that ``None``; links keep ``None`` instead of the hub when
    ``enabled`` is false.  Each guards its hook calls with a single
    ``is not None`` test, which is the whole off-path cost.
    """

    enabled = False

    def port_probe(self, port: "Port") -> None:
        return None


#: Shared inactive hub returned by ``get_telemetry()`` outside captures.
NULL_TELEMETRY = NullTelemetry()

_registry_stack: list[MetricsRegistry] = []
_tracer_stack: list[Tracer] = []
_telemetry_stack: list[TelemetryHub] = []


def enabled() -> bool:
    """Whether any capture scope is currently active."""
    return bool(_registry_stack or _tracer_stack or _telemetry_stack)


def get_registry():
    """The active :class:`MetricsRegistry`, or the shared null registry."""
    return _registry_stack[-1] if _registry_stack else NULL_REGISTRY


def get_tracer():
    """The active :class:`Tracer`, or the shared null tracer."""
    return _tracer_stack[-1] if _tracer_stack else NULL_TRACER


def get_telemetry():
    """The active :class:`TelemetryHub`, or the shared null hub.

    Network components call this *once, at construction*: links keep
    the hub (or ``None`` when it is not ``enabled``), ports their probe
    (the null hub hands out ``None``), and hot paths guard with a single
    ``is not None`` test.
    """
    return _telemetry_stack[-1] if _telemetry_stack else NULL_TELEMETRY


@dataclass
class ObsCapture:
    """Handles to the instruments installed by one :func:`capture` scope."""

    registry: MetricsRegistry
    tracer: Tracer
    telemetry: TelemetryHub | None = None


@contextmanager
def capture(
    metrics: bool = True,
    tracing: bool = True,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    telemetry: TelemetryHub | bool | None = None,
) -> Iterator[ObsCapture]:
    """Activate observability for the dynamic extent of the block.

    ``metrics`` / ``tracing`` select which facets go live;
    pass an explicit ``registry`` or ``tracer`` to accumulate into an
    existing instance (e.g. across several sweeps).  ``telemetry``
    installs an in-band network :class:`TelemetryHub` (``True`` for a
    default-configured one) — networks built inside the block attach
    ring samplers and flight-recorder probes to it.
    """
    live_registry = registry if registry is not None else MetricsRegistry()
    live_tracer = tracer if tracer is not None else Tracer()
    if telemetry is True:
        from .telemetry import TelemetryHub

        hub: TelemetryHub | None = TelemetryHub()
    elif telemetry:
        hub = telemetry
    else:
        hub = None
    if metrics:
        _registry_stack.append(live_registry)
    if tracing:
        _tracer_stack.append(live_tracer)
    if hub is not None:
        _telemetry_stack.append(hub)
    try:
        yield ObsCapture(
            registry=live_registry, tracer=live_tracer, telemetry=hub,
        )
    finally:
        if hub is not None:
            _telemetry_stack.pop()
        if tracing:
            _tracer_stack.pop()
        if metrics:
            _registry_stack.pop()
