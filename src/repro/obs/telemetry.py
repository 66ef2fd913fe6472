"""In-band telemetry for the *simulated* network.

The rest of ``repro.obs`` watches the harness — jobs, traces, sweep
status.  This module watches the fabric itself, with two instruments
modeled on data-center streaming telemetry practice (the paper's thesis
applied to our own simulator):

- **Time-series samplers** — fixed-capacity ring buffers
  (:class:`RingSampler`) recording per-port tx busy time, per-link bytes,
  and per-queue depth broken down by PCP class.  On overflow a sampler
  *decimates deterministically*: it drops every other retained sample and
  doubles its admission stride, so memory stays bounded while the series
  keeps covering the whole run at progressively coarser resolution.
- **A flight recorder** — a per-component ring of recent packet/state
  events (drops, link transitions), snapshotted automatically when a
  chaos fault fires or a figure verdict fails, so a failed requirement
  comes with the fabric's last moments attached.

Activation follows the ``obs.capture()`` null-object pattern: ports ask
:func:`repro.obs.get_telemetry` for their probe and links for the active
:class:`TelemetryHub` *at construction time* and keep ``None`` when
telemetry is off, so the hot path pays one attribute load and an
``is not None`` test — ``Simulator._run_fast`` is untouched.  The null
hub lives in :mod:`repro.obs.runtime`; this module loads only when a
capture installs a live hub (``capture(telemetry=...)``) or an artifact
is read back.

Determinism contract: the hub never draws from simulation RNG streams
and never schedules events, and its ``.telemetry.json`` snapshot (schema
``repro.obs/telemetry/v2``) is byte-stable across repeated runs for a
fixed seed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.link import Port
    from ..net.packet import Packet

TELEMETRY_SCHEMA = "repro.obs/telemetry/v2"


def _series_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class RingSampler:
    """A bounded time series with deterministic decimation-on-overflow.

    Admission is stride-based: only every ``stride``-th observation is
    retained.  When the ring fills, every other retained sample is
    dropped and the stride doubles, so the ``capacity`` samples always
    span the full observation history at uniform (if coarsening)
    resolution.  Pure function of the observation sequence — no clocks,
    no randomness.
    """

    __slots__ = (
        "name", "labels", "capacity", "stride", "observed",
        "decimations", "samples",
    )

    def __init__(
        self, name: str, capacity: int = 256, labels: dict[str, Any] | None = None
    ) -> None:
        if capacity < 2 or capacity % 2:
            raise ValueError("sampler capacity must be an even number >= 2")
        self.name = name
        self.labels = dict(labels or {})
        self.capacity = capacity
        self.stride = 1
        self.observed = 0
        self.decimations = 0
        self.samples: list[tuple[int, int | float]] = []

    def record(self, t_ns: int, value: int | float) -> None:
        """Observe ``value`` at sim-time ``t_ns`` (may be decimated away)."""
        index = self.observed
        self.observed = index + 1
        if index % self.stride:
            return
        samples = self.samples
        if len(samples) >= self.capacity:
            # Keep even positions: retained indices stay multiples of the
            # doubled stride, so admission and retention agree.
            del samples[1::2]
            self.stride *= 2
            self.decimations += 1
            if index % self.stride:
                return
        samples.append((t_ns, value))

    @property
    def last(self) -> tuple[int, int | float] | None:
        return self.samples[-1] if self.samples else None

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "labels": {k: self.labels[k] for k in sorted(self.labels)},
            "capacity": self.capacity,
            "stride": self.stride,
            "observed": self.observed,
            "decimations": self.decimations,
            "samples": [[t, v] for t, v in self.samples],
        }


class FlightRecorder:
    """Per-component rings of recent events, snapshotted on demand.

    ``note`` appends to a bounded per-component ring (oldest events fall
    off).  ``snapshot`` freezes every ring under a trigger label — the
    chaos engine snapshots when a fault fires, the runner when a figure
    verdict fails.
    """

    def __init__(self, capacity: int = 64, max_snapshots: int = 32) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.max_snapshots = max_snapshots
        self._rings: dict[str, list[dict[str, Any]]] = {}
        self.snapshots: list[dict[str, Any]] = []
        self.dropped_snapshots = 0
        self.events = 0

    def note(self, component: str, t_ns: int, kind: str, **detail: Any) -> None:
        """Record one event on ``component``'s ring."""
        ring = self._rings.get(component)
        if ring is None:
            ring = self._rings[component] = []
        event = {"t_ns": t_ns, "kind": kind}
        if detail:
            event.update(detail)
        ring.append(event)
        if len(ring) > self.capacity:
            del ring[0]
        self.events += 1

    def snapshot(self, trigger: str, t_ns: int | None = None) -> dict | None:
        """Freeze all rings under ``trigger``; returns the snapshot dict."""
        if len(self.snapshots) >= self.max_snapshots:
            self.dropped_snapshots += 1
            return None
        frozen = {
            "trigger": trigger,
            "t_ns": t_ns,
            "components": {
                name: [dict(event) for event in self._rings[name]]
                for name in sorted(self._rings)
            },
        }
        self.snapshots.append(frozen)
        return frozen

    def as_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "events": self.events,
            "dropped_snapshots": self.dropped_snapshots,
            "snapshots": [dict(s) for s in self.snapshots],
        }


class PortProbe:
    """Telemetry hook points for one :class:`~repro.net.link.Port`."""

    __slots__ = (
        "hub", "port", "busy_ns", "tx_bytes",
        "_busy_ring", "_bytes_ring", "_depth_ring", "_pcp_rings",
        "_class_depth",
    )

    def __init__(self, hub: "TelemetryHub", port: "Port") -> None:
        self.hub = hub
        self.port = port
        self.busy_ns = 0
        self.tx_bytes = 0
        name = port.name
        self._busy_ring = hub.sampler("net.port.busy_ns", port=name)
        self._bytes_ring = hub.sampler("net.link.tx_bytes", port=name)
        self._depth_ring = hub.sampler("net.queue.depth", port=name)
        self._pcp_rings: dict[int, RingSampler] = {}
        self._class_depth = getattr(port.queue, "class_depth", None)

    def on_enqueue(self, packet: "Packet") -> None:
        """Sample queue depth (total and for the packet's PCP class)."""
        port = self.port
        now = port.sim.now
        self._depth_ring.record(now, len(port.queue))
        pcp = packet.pcp
        ring = self._pcp_rings.get(pcp)
        if ring is None:
            ring = self.hub.sampler(
                "net.queue.depth", port=port.name, pcp=pcp
            )
            self._pcp_rings[pcp] = ring
        if self._class_depth is not None:
            ring.record(now, self._class_depth(pcp))
        else:
            ring.record(now, len(port.queue))

    def on_drop(self, packet: "Packet") -> None:
        """Egress drop: a flight-recorder event on this port."""
        self.hub.flight.note(
            self.port.name, self.port.sim.now, "queue.drop",
            pcp=packet.pcp, flow=packet.flow_id,
        )

    def on_transmit(self, packet: "Packet", tx_ns: int) -> None:
        """Serialization started: accumulate busy time and bytes."""
        now = self.port.sim.now
        self.busy_ns += tx_ns
        self.tx_bytes += packet.wire_size_bytes
        self._busy_ring.record(now, self.busy_ns)
        self._bytes_ring.record(now, self.tx_bytes)

    def on_busy(self, busy_ns: int) -> None:
        """Wire time reported apart from :meth:`on_transmit` (fragments)."""
        self.busy_ns += busy_ns
        self._busy_ring.record(self.port.sim.now, self.busy_ns)


class TelemetryHub:
    """The active telemetry plane: ring samplers + flight recorder.

    Install one with ``obs.capture(telemetry=TelemetryHub(...))`` (or
    ``telemetry=True`` for defaults) *before* building the network —
    ports and links resolve their probes, or the hub, at construction
    time.
    """

    enabled = True

    def __init__(
        self, *, ring_capacity: int = 256, flight_capacity: int = 64
    ) -> None:
        self.ring_capacity = ring_capacity
        self.samplers: dict[str, RingSampler] = {}
        self.flight = FlightRecorder(capacity=flight_capacity)

    def sampler(self, name: str, **labels: Any) -> RingSampler:
        """Get or create the ring sampler for ``name`` + ``labels``."""
        key = _series_key(name, labels)
        ring = self.samplers.get(key)
        if ring is None:
            ring = RingSampler(name, capacity=self.ring_capacity, labels=labels)
            self.samplers[key] = ring
        return ring

    def port_probe(self, port: "Port") -> PortProbe:
        """The port's probe (the null hub returns ``None`` instead)."""
        return PortProbe(self, port)

    # -- output --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The full telemetry state as a JSON-stable dict."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "samplers": {
                key: self.samplers[key].snapshot()
                for key in sorted(self.samplers)
            },
            "flight": self.flight.as_dict(),
        }

    def summary(self, sim_time_ns: int | None = None) -> dict[str, Any]:
        """A small, manifest-embeddable digest of the snapshot.

        ``sim_time_ns`` (when known) turns cumulative port busy time into
        a utilization fraction.
        """
        queues: list[dict[str, Any]] = []
        links: dict[str, dict[str, Any]] = {}
        for key in sorted(self.samplers):
            ring = self.samplers[key]
            labels = ring.labels
            if ring.name == "net.queue.depth" and "pcp" not in labels:
                peak = max((v for _, v in ring.samples), default=0)
                if peak > 0:
                    queues.append(
                        {
                            "queue": labels.get("port", key),
                            "max_depth": peak,
                            "samples": ring.observed,
                        }
                    )
            elif ring.name in ("net.port.busy_ns", "net.link.tx_bytes"):
                port = str(labels.get("port", key))
                entry = links.setdefault(
                    port, {"port": port, "busy_ns": 0, "tx_bytes": 0}
                )
                last = ring.last
                value = last[1] if last is not None else 0
                if ring.name == "net.port.busy_ns":
                    entry["busy_ns"] = value
                else:
                    entry["tx_bytes"] = value
        queues.sort(key=lambda q: (-q["max_depth"], q["queue"]))
        link_rows = sorted(
            links.values(), key=lambda l: (-l["tx_bytes"], l["port"])
        )
        if sim_time_ns:
            for entry in link_rows:
                entry["utilization"] = round(
                    entry["busy_ns"] / sim_time_ns, 6
                )
        return {
            "schema": TELEMETRY_SCHEMA,
            "flight_events": self.flight.events,
            "flight_snapshots": len(self.flight.snapshots),
            "top_queues": queues[:5],
            "links": link_rows[:10],
        }

    def write_snapshot(self, path: Path | str) -> dict[str, Any]:
        """Write the full snapshot as canonical JSON; returns the payload."""
        payload = self.snapshot()
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        return payload


# -- reading artifacts back ---------------------------------------------------

def load_snapshot(path: Path | str) -> dict[str, Any]:
    """Read a ``.telemetry.json`` snapshot, validating its schema."""
    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema")
    if schema != TELEMETRY_SCHEMA:
        raise ValueError(
            f"unsupported telemetry schema {schema!r}; "
            f"expected {TELEMETRY_SCHEMA}"
        )
    return payload


def snapshot_paths(target: Path | str) -> list[Path]:
    """The ``.telemetry.json`` files under ``target`` (file or dir)."""
    target = Path(target)
    if target.is_file():
        return [target]
    if target.is_dir():
        return sorted(target.glob("*.telemetry.json"))
    raise FileNotFoundError(
        f"no telemetry snapshots at {target} (expected a .telemetry.json "
        f"file or a directory containing them)"
    )


def format_snapshot(payload: dict[str, Any], name: str = "") -> str:
    """Human-readable rendering of one snapshot (``repro obs telemetry``)."""
    lines = []
    title = f"telemetry {name}".rstrip()
    lines.append(title)
    lines.append("-" * len(title))
    flight = payload.get("flight", {})
    lines.append(
        f"flight recorder: {flight.get('events', 0)} events, "
        f"{len(flight.get('snapshots', []))} snapshots"
    )
    samplers = payload.get("samplers", {})
    lines.append(f"samplers: {len(samplers)}")
    for key in sorted(samplers):
        ring = samplers[key]
        samples = ring.get("samples", [])
        last = samples[-1][1] if samples else 0
        peak = max((v for _, v in samples), default=0)
        lines.append(
            f"  {key}: {len(samples)} samples "
            f"(observed {ring.get('observed', 0)}, "
            f"stride {ring.get('stride', 1)}), last={last}, max={peak}"
        )
    return "\n".join(lines)


def format_flight(payload: dict[str, Any], name: str = "") -> str:
    """Human-readable flight-recorder dump (``repro obs flight``)."""
    lines = []
    title = f"flight recorder {name}".rstrip()
    lines.append(title)
    lines.append("-" * len(title))
    flight = payload.get("flight", {})
    snapshots = flight.get("snapshots", [])
    lines.append(
        f"{flight.get('events', 0)} events recorded, "
        f"{len(snapshots)} snapshots "
        f"({flight.get('dropped_snapshots', 0)} dropped)"
    )
    for snap in snapshots:
        t_ns = snap.get("t_ns")
        when = f"t={t_ns}ns" if t_ns is not None else "t=?"
        lines.append(f"* {snap.get('trigger', '?')} ({when})")
        components = snap.get("components", {})
        for component in sorted(components):
            events = components[component]
            lines.append(f"    {component}: {len(events)} events")
            for event in events[-5:]:
                detail = ", ".join(
                    f"{k}={v}"
                    for k, v in sorted(event.items())
                    if k not in ("t_ns", "kind")
                )
                suffix = f" ({detail})" if detail else ""
                lines.append(
                    f"      {event.get('t_ns')}ns "
                    f"{event.get('kind')}{suffix}"
                )
    if not snapshots:
        lines.append("(no snapshots: no chaos fault fired and no verdict "
                     "failed during this run)")
    return "\n".join(lines)
