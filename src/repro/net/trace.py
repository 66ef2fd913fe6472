"""Packet tracing: capture, filter, export, analyze.

A :class:`PacketTracer` attaches to switches, P4 switches, and hosts and
records every frame it observes with a wall-clock-free, simulation-native
record.  Traces export to JSON-lines (one record per line, the pcap of
this simulator) and support the two queries experiments keep needing:
per-flow record streams and one-way latency extraction by matching a flow's
records at two observation points.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable

from ..simcore import Simulator
from .host import Host
from .packet import Packet
from .switch import Switch
from .topology import Topology


@dataclass(frozen=True)
class TraceRecord:
    """One observed frame at one observation point."""

    time_ns: int
    point: str        # device the frame was seen at
    direction: str    # 'rx' | 'tx'
    src: str
    dst: str
    flow_id: str
    sequence: int
    payload_bytes: int
    traffic_class: str
    packet_id: int

    def to_json(self) -> str:
        """One JSON line."""
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        """Parse one JSON line back into a record."""
        return cls(**json.loads(line))


class PacketTracer:
    """Collects :class:`TraceRecord` objects from attached devices."""

    def __init__(self, sim: Simulator, max_records: int = 1_000_000) -> None:
        if max_records < 1:
            raise ValueError("max_records must be positive")
        self.sim = sim
        self.max_records = max_records
        self.records: list[TraceRecord] = []
        self.dropped_records = 0
        #: (flow_id, point) -> records in capture order; maintained on
        #: capture so latency queries never rescan the whole trace.
        self._by_flow_point: dict[tuple[str, str], list[TraceRecord]] = {}

    # -- capture ---------------------------------------------------------------

    def _record(
        self,
        point: str,
        direction: str,
        packet: Packet,
        time_ns: int | None = None,
    ) -> None:
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        record = TraceRecord(
            time_ns=self.sim.now if time_ns is None else time_ns,
            point=point,
            direction=direction,
            src=packet.src,
            dst=packet.dst,
            flow_id=packet.flow_id,
            sequence=packet.sequence,
            payload_bytes=packet.payload_bytes,
            traffic_class=packet.traffic_class.name,
            packet_id=packet.packet_id,
        )
        self.records.append(record)
        key = (record.flow_id, point)
        bucket = self._by_flow_point.get(key)
        if bucket is None:
            self._by_flow_point[key] = [record]
        else:
            bucket.append(record)

    def attach_switch(self, switch: Switch) -> None:
        """Observe every frame a switch receives, at its arrival time."""
        switch.taps.append(
            lambda packet, port, arrival_ns: self._record(
                switch.name, "rx", packet, arrival_ns
            )
        )

    def attach_p4_switch(self, switch) -> None:
        """Observe a P4 switch's ingress and egress."""
        switch.ingress_taps.append(
            lambda packet, port: self._record(switch.name, "rx", packet)
        )
        switch.egress_taps.append(
            lambda packet, port: self._record(switch.name, "tx", packet)
        )

    def attach_host(self, host: Host) -> None:
        """Observe frames delivered to a host."""
        host.on_receive(lambda packet: self._record(host.name, "rx", packet))

    def attach_topology(self, topo: Topology) -> None:
        """Observe every switch and host in a topology."""
        for device in topo.devices.values():
            if isinstance(device, Switch):
                self.attach_switch(device)
            elif isinstance(device, Host):
                self.attach_host(device)

    # -- queries ------------------------------------------------------------------

    def for_flow(self, flow_id: str) -> list[TraceRecord]:
        """All records of one flow, in capture order."""
        return [r for r in self.records if r.flow_id == flow_id]

    def at_point(self, point: str) -> list[TraceRecord]:
        """All records captured at one device."""
        return [r for r in self.records if r.point == point]

    def flow_latencies_ns(
        self, flow_id: str, from_point: str, to_point: str
    ) -> list[int]:
        """One-way latency per sequence number between two points.

        Served from the per-``(flow, point)`` capture index, so the cost is
        proportional to the two observation points' record counts, not the
        whole trace.
        """
        first: dict[int, int] = {}
        for record in self._by_flow_point.get((flow_id, from_point), ()):
            first.setdefault(record.sequence, record.time_ns)
        latencies = []
        seen: set[int] = set()
        for record in self._by_flow_point.get((flow_id, to_point), ()):
            if record.sequence in first and record.sequence not in seen:
                seen.add(record.sequence)
                latencies.append(record.time_ns - first[record.sequence])
        return latencies

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-flow record and byte counts.

        When the capture cap truncated the trace, an extra ``"(dropped)"``
        entry reports how many records were lost — a silently clipped trace
        is otherwise indistinguishable from a quiet network.
        """
        table: dict[str, dict[str, int]] = {}
        for record in self.records:
            entry = table.setdefault(
                record.flow_id or "(none)", {"records": 0, "bytes": 0}
            )
            entry["records"] += 1
            entry["bytes"] += record.payload_bytes
        if self.dropped_records:
            table["(dropped)"] = {"records": self.dropped_records, "bytes": 0}
        return table

    # -- persistence ---------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write the trace as JSON lines; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(record.to_json())
                handle.write("\n")
        return len(self.records)

    @staticmethod
    def load_jsonl(path) -> list[TraceRecord]:
        """Read a trace back from JSON lines."""
        records = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(TraceRecord.from_json(line))
        return records

    def clear(self) -> None:
        """Drop everything captured so far."""
        self.records.clear()
        self._by_flow_point.clear()
        self.dropped_records = 0


def postcard_trace_records(
    postcards: Iterable[dict],
) -> list[TraceRecord]:
    """Project INT postcards (:mod:`repro.obs.telemetry`) onto trace records.

    Each hop of a postcard becomes a ``tx`` record at its egress time and
    the delivery becomes an ``rx`` record, so sampled-packet paths answer
    the same queries as a full :class:`PacketTracer` capture (e.g. feed
    them through :meth:`PacketTracer.flow_latencies_ns`-style matching).
    Postcards deliberately omit ``packet_id`` (a process-global counter
    that would break byte-stability), so projected records carry 0 there.
    """
    records: list[TraceRecord] = []
    for card in postcards:
        common = {
            "src": card["src"],
            "dst": card["dst"],
            "flow_id": card.get("flow", ""),
            "sequence": card.get("seq", 0),
            "payload_bytes": card.get("payload_bytes", 0),
            "traffic_class": card.get("tc", "BEST_EFFORT"),
            "packet_id": 0,
        }
        for hop in card.get("hops", ()):
            records.append(
                TraceRecord(
                    time_ns=hop["out_ns"],
                    point=hop["dev"],
                    direction="tx",
                    **common,
                )
            )
        records.append(
            TraceRecord(
                time_ns=card["delivered_ns"],
                point=card.get("delivered_to", card["dst"]),
                direction="rx",
                **common,
            )
        )
    records.sort(key=lambda r: r.time_ns)
    return records
