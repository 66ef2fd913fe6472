"""In-band telemetry for the *simulated* network.

The rest of ``repro.obs`` watches the harness — jobs, traces, sweep
status.  This module watches the fabric itself, with three instruments
modeled on data-center streaming telemetry practice (the paper's thesis
applied to our own simulator):

- **Time-series samplers** — fixed-capacity ring buffers
  (:class:`RingSampler`) recording per-port tx busy time, per-link bytes,
  and per-queue depth broken down by PCP class.  On overflow a sampler
  *decimates deterministically*: it drops every other retained sample and
  doubles its admission stride, so memory stays bounded while the series
  keeps covering the whole run at progressively coarser resolution.
- **INT-style postcards** — a seeded 1-in-N packet sampler.  Sampled
  packets accumulate one record per hop (ingress/egress sim-time, queue
  depth seen, per-hop latency) and emit a *postcard* when delivered,
  giving per-flow path attribution.  Postcards are the one per-packet
  path record of the simulated fabric.
- **A flight recorder** — a per-component ring of recent packet/state
  events (drops, link transitions), snapshotted automatically when a
  chaos fault fires or a figure verdict fails, so a failed requirement
  comes with the fabric's last moments attached.

Activation follows the ``obs.capture()`` null-object pattern: components
ask :func:`repro.obs.get_telemetry` for the active
:class:`TelemetryHub` *at construction time* and keep ``None`` when
telemetry is off, so the hot path pays one attribute load and an
``is not None`` test — ``Simulator._run_fast`` is untouched.  The null
hub lives in :mod:`repro.obs.runtime`; this module loads only when a
capture installs a live hub (``capture(telemetry=...)``) or an artifact
is read back.

Determinism contract: the hub never draws from simulation RNG streams
and never schedules events.  The sampling decision is a pure
``blake2s`` hash of ``(seed, src, dst, flow, sequence, created_ns)``,
and every serialized artifact (``.telemetry.json`` snapshots,
``.postcards.jsonl`` sinks, schema ``repro.obs/telemetry/v1``) is
byte-stable across repeated runs for a fixed seed.
"""

from __future__ import annotations

import json
from hashlib import blake2s
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.link import Port
    from ..net.packet import Packet
    from ..tsn.shaper import TimeAwareShaper

TELEMETRY_SCHEMA = "repro.obs/telemetry/v1"

#: Hop records kept per sampled packet; routing loops cannot grow a
#: draft without bound.
_MAX_HOPS = 64


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
        """Serialization started: accumulate busy time, stamp INT egress."""
        port = self.port
        now = port.sim.now
        self.busy_ns += tx_ns
        self.tx_bytes += packet.wire_size_bytes
        self._busy_ring.record(now, self.busy_ns)
        self._bytes_ring.record(now, self.tx_bytes)
        self.hub.stamp_egress(packet, port.name, now, len(port.queue))

    def on_busy(self, busy_ns: int) -> None:
        """Wire time reported apart from :meth:`on_transmit` (fragments)."""
        self.busy_ns += busy_ns
        self._busy_ring.record(self.port.sim.now, self.busy_ns)


class ShaperProbe:
    """Cumulative TSN shaper block counts as time series."""

    __slots__ = ("_shaper", "_guard_ring", "_gate_ring")

    def __init__(
        self, hub: "TelemetryHub", name: str, shaper: "TimeAwareShaper"
    ) -> None:
        self._shaper = shaper
        self._guard_ring = hub.sampler(
            "tsn.shaper.blocks", shaper=name, reason="guard_band"
        )
        self._gate_ring = hub.sampler(
            "tsn.shaper.blocks", shaper=name, reason="gate_closed"
        )

    def on_guard_band(self, now_ns: int) -> None:
        self._guard_ring.record(now_ns, self._shaper.guard_band_blocks)

    def on_gate_closed(self, now_ns: int) -> None:
        self._gate_ring.record(now_ns, self._shaper.gate_closed_blocks)


class TelemetryHub:
    """The active telemetry plane: samplers + postcards + flight recorder.

    Install one with ``obs.capture(telemetry=TelemetryHub(...))`` (or
    ``telemetry=True`` for defaults) *before* building the network —
    components resolve the hub, or their probes, at construction time.
    """

    enabled = True

    def __init__(
        self,
        *,
        interval: int = 64,
        seed: int = 0,
        ring_capacity: int = 256,
        flight_capacity: int = 64,
        max_postcards: int = 100_000,
        max_inflight: int = 4096,
    ) -> None:
        if interval < 1:
            raise ValueError("postcard interval must be >= 1")
        self.interval = interval
        self.seed = seed
        self.ring_capacity = ring_capacity
        self.max_postcards = max_postcards
        self.max_inflight = max_inflight
        self.samplers: dict[str, RingSampler] = {}
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.postcards: list[dict[str, Any]] = []
        self.postcards_dropped = 0
        self.packets_sampled = 0
        self.inflight_evicted = 0
        #: id(packet) -> postcard draft for sampled packets in flight.
        self._inflight: dict[int, dict[str, Any]] = {}
        self._shaper_count = 0

    # -- samplers ------------------------------------------------------------

    def sampler(self, name: str, **labels: Any) -> RingSampler:
        """Get or create the ring sampler for ``name`` + ``labels``."""
        key = _series_key(name, labels)
        ring = self.samplers.get(key)
        if ring is None:
            ring = RingSampler(name, capacity=self.ring_capacity, labels=labels)
            self.samplers[key] = ring
        return ring

    # -- probe factories (null hub returns None for each) --------------------

    def port_probe(self, port: "Port") -> PortProbe:
        return PortProbe(self, port)

    def shaper_probe(self, shaper: "TimeAwareShaper") -> ShaperProbe:
        # Shapers carry no identity; assign them construction-order names.
        name = f"shaper{self._shaper_count}"
        self._shaper_count += 1
        return ShaperProbe(self, name, shaper)

    # -- INT postcards -------------------------------------------------------

    def sampled(self, packet: "Packet") -> bool:
        """The deterministic 1-in-N decision for one packet.

        A pure hash of stable packet identity — never the sim RNG (which
        would perturb the workload) and never ``packet_id`` (a
        process-global counter that differs between runs).
        """
        interval = self.interval
        if interval <= 1:
            return True
        key = "%d|%s|%s|%s|%d|%d" % (
            self.seed, packet.src, packet.dst, packet.flow_id,
            packet.sequence, packet.created_ns,
        )
        digest = blake2s(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % interval == 0

    def begin_postcard(self, packet: "Packet", now_ns: int) -> None:
        """Start accumulating hop records for a sampled packet."""
        inflight = self._inflight
        if len(inflight) >= self.max_inflight:
            # Evict the oldest draft (dict preserves insertion order);
            # lost/undelivered packets must not pin memory forever.
            inflight.pop(next(iter(inflight)))
            self.inflight_evicted += 1
        self.packets_sampled += 1
        inflight[id(packet)] = {
            "_pid": packet.packet_id,
            "_in": now_ns,
            "_in_dev": packet.src,
            "flow": packet.flow_id,
            "src": packet.src,
            "dst": packet.dst,
            "seq": packet.sequence,
            "tc": packet.traffic_class.name,
            "payload_bytes": packet.payload_bytes,
            "sent_ns": now_ns,
            "hops": [],
        }

    def _draft(self, packet: "Packet") -> dict[str, Any] | None:
        draft = self._inflight.get(id(packet))
        if draft is None:
            return None
        if draft["_pid"] != packet.packet_id:
            # A dead packet's id() was reused by a new packet while its
            # old draft still lingered; the draft is stale.
            del self._inflight[id(packet)]
            return None
        return draft

    def stamp_ingress(
        self, packet: "Packet", device: str, now_ns: int
    ) -> None:
        draft = self._draft(packet)
        if draft is None:
            return
        draft["_in"] = now_ns
        draft["_in_dev"] = device

    def stamp_egress(
        self, packet: "Packet", port: str, now_ns: int, queue_depth: int
    ) -> None:
        draft = self._draft(packet)
        if draft is None:
            return
        hops = draft["hops"]
        if len(hops) >= _MAX_HOPS:
            return
        in_ns = draft["_in"]
        hops.append(
            {
                "dev": draft["_in_dev"],
                "port": port,
                "in_ns": in_ns,
                "out_ns": now_ns,
                "hop_ns": now_ns - in_ns,
                "queue_depth": queue_depth,
            }
        )

    def transfer(self, old: "Packet", new: "Packet") -> None:
        """Hand an in-flight draft across a frame copy.

        The P4 deparser and replication engine forward *copies* of the
        ingress frame (:meth:`Packet.copy_for_replication`), so a sampled
        packet's draft must follow the copy or it would never finish.
        Moves (not clones) the draft: with multicast replication the
        postcard follows the first egress copy.
        """
        if old is new:
            return
        draft = self._draft(old)
        if draft is None:
            return
        del self._inflight[id(old)]
        draft["_pid"] = new.packet_id
        self._inflight[id(new)] = draft

    def finish_postcard(
        self, packet: "Packet", host: str, now_ns: int
    ) -> None:
        """Emit the postcard for a delivered sampled packet."""
        draft = self._draft(packet)
        if draft is None:
            return
        del self._inflight[id(packet)]
        if len(self.postcards) >= self.max_postcards:
            self.postcards_dropped += 1
            return
        self.postcards.append(
            {
                "schema": TELEMETRY_SCHEMA,
                "kind": "postcard",
                "flow": draft["flow"],
                "src": draft["src"],
                "dst": draft["dst"],
                "delivered_to": host,
                "seq": draft["seq"],
                "tc": draft["tc"],
                "payload_bytes": draft["payload_bytes"],
                "sent_ns": draft["sent_ns"],
                "delivered_ns": now_ns,
                "latency_ns": now_ns - draft["sent_ns"],
                "hops": draft["hops"],
            }
        )

    # -- output --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The full telemetry state as a JSON-stable dict."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "interval": self.interval,
            "seed": self.seed,
            "postcards": {
                "emitted": len(self.postcards),
                "dropped": self.postcards_dropped,
                "evicted": self.inflight_evicted,
                "inflight": len(self._inflight),
                "sampled": self.packets_sampled,
            },
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
            "interval": self.interval,
            "postcards": len(self.postcards),
            "postcards_dropped": self.postcards_dropped,
            "packets_sampled": self.packets_sampled,
            "flight_events": self.flight.events,
            "flight_snapshots": len(self.flight.snapshots),
            "top_queues": queues[:5],
            "links": link_rows[:10],
        }

    def write_postcards_jsonl(self, path: Path | str) -> int:
        """Write every postcard as one canonical JSON line; returns count."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            for postcard in self.postcards:
                handle.write(
                    json.dumps(postcard, sort_keys=True,
                               separators=(",", ":"))
                )
                handle.write("\n")
        return len(self.postcards)

    def write_snapshot(self, path: Path | str) -> dict[str, Any]:
        """Write the full snapshot as canonical JSON; returns the payload."""
        payload = self.snapshot()
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        return payload


# -- reading artifacts back ---------------------------------------------------

def load_postcards_jsonl(path: Path | str) -> list[dict[str, Any]]:
    """Read a ``.postcards.jsonl`` sink back into dicts."""
    postcards = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                postcards.append(json.loads(line))
    return postcards


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
    cards = payload.get("postcards", {})
    lines.append(
        "postcards: {emitted} emitted / {sampled} sampled "
        "(interval 1-in-{interval}, {dropped} dropped)".format(
            emitted=cards.get("emitted", 0),
            sampled=cards.get("sampled", 0),
            interval=payload.get("interval", "?"),
            dropped=cards.get("dropped", 0),
        )
    )
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


def summarize_postcards(
    postcards: Iterable[dict[str, Any]]
) -> dict[str, dict[str, int]]:
    """Per-flow postcard counts and latency aggregates."""
    table: dict[str, dict[str, int]] = {}
    for card in postcards:
        entry = table.setdefault(
            card.get("flow") or "(none)",
            {"postcards": 0, "total_latency_ns": 0, "max_latency_ns": 0},
        )
        entry["postcards"] += 1
        latency = card.get("latency_ns", 0)
        entry["total_latency_ns"] += latency
        if latency > entry["max_latency_ns"]:
            entry["max_latency_ns"] = latency
    return table
