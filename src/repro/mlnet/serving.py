"""Inference clients and servers over the packet network.

:class:`MlClient` periodically captures a frame, segments it into MTU-sized
packets, and streams it to its assigned server.  :class:`InferenceServer`
reassembles frames, queues them on a bank of compute units, and returns a
small result packet.  The client's recorded latency is first-packet-out to
result-in — the end-to-end inference latency Figure 6 plots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..net.host import Host
from ..net.packet import Packet, TrafficClass
from ..simcore import Simulator

MTU_PAYLOAD_BYTES = 1_460


@dataclass
class ClientStats:
    """Per-client measurement record."""

    frames_sent: int = 0
    results_received: int = 0
    latencies_ns: list[int] = field(default_factory=list)


class MlClient:
    """A camera + inference client bound to one host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        server_name: str,
        frame_bytes: int,
        fps: float,
        start_ns: int = 0,
        client_id: str | None = None,
    ) -> None:
        if frame_bytes <= 0 or fps <= 0:
            raise ValueError("frame size and fps must be positive")
        self.sim = sim
        self.host = host
        self.server_name = server_name
        self.frame_bytes = frame_bytes
        self.period_ns = round(1e9 / fps)
        self.start_ns = start_ns
        self.client_id = client_id or host.name
        self.stats = ClientStats()
        self._send_times: dict[int, int] = {}
        self.running = False
        host.on_receive(self._on_packet)

    def start(self) -> None:
        """Begin streaming frames."""
        self.running = True
        self.sim.process(self._loop(), name=f"mlclient:{self.client_id}")

    def stop(self) -> None:
        """Stop streaming."""
        self.running = False

    def _loop(self):
        if self.start_ns:
            yield self.start_ns
        next_release = self.sim.now
        while self.running:
            self._send_frame()
            next_release += self.period_ns
            yield max(0, next_release - self.sim.now)

    def _send_frame(self) -> None:
        self.stats.frames_sent += 1
        frame_seq = self.stats.frames_sent
        self._send_times[frame_seq] = self.sim.now
        remaining = self.frame_bytes
        segment = 0
        while remaining > 0:
            size = min(remaining, MTU_PAYLOAD_BYTES)
            remaining -= size
            segment += 1
            self.host.send(
                dst=self.server_name,
                payload_bytes=size,
                traffic_class=TrafficClass.LATENCY_SENSITIVE,
                flow_id=f"ml:{self.client_id}",
                sequence=frame_seq,
                payload={
                    "type": "ml_frame_segment",
                    "client": self.client_id,
                    "frame": frame_seq,
                    "segment": segment,
                    "frame_bytes": self.frame_bytes,
                },
            )

    def _on_packet(self, packet: Packet) -> None:
        if packet.payload.get("type") != "ml_result":
            return
        frame_seq = packet.payload.get("frame")
        sent = self._send_times.pop(frame_seq, None)
        if sent is None:
            return
        self.stats.results_received += 1
        self.stats.latencies_ns.append(self.sim.now - sent)

    def latencies_ms(self) -> np.ndarray:
        """Observed end-to-end latencies in milliseconds."""
        return np.asarray(self.stats.latencies_ns, dtype=float) / 1e6


@dataclass
class ServerStats:
    """Per-server counters."""

    frames_completed: int = 0
    results_sent: int = 0
    busy_ns: int = 0
    queue_peak: int = 0


class InferenceServer:
    """A compute node with ``units`` parallel inference engines."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        units: int = 1,
        service_time_ns: int = 500_000,
        service_cv: float = 0.2,
        rng: np.random.Generator | None = None,
    ) -> None:
        if units < 1:
            raise ValueError("need at least one compute unit")
        self.sim = sim
        self.host = host
        self.units = units
        self.service_time_ns = service_time_ns
        self.service_cv = service_cv
        self.rng = rng if rng is not None else sim.streams.stream(
            f"mlserver/{host.name}"
        )
        self.stats = ServerStats()
        self._reassembly: dict[tuple[str, int], int] = {}
        self._queue: deque[tuple[str, int, str]] = deque()
        self._busy_units = 0
        host.on_receive(self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        if packet.payload.get("type") != "ml_frame_segment":
            return
        key = (packet.payload["client"], packet.payload["frame"])
        received = self._reassembly.get(key, 0) + packet.payload_bytes
        if received >= packet.payload["frame_bytes"]:
            self._reassembly.pop(key, None)
            self._enqueue(packet.payload["client"], packet.payload["frame"],
                          packet.src)
        else:
            self._reassembly[key] = received

    def _enqueue(self, client_id: str, frame_seq: int, reply_to: str) -> None:
        self._queue.append((client_id, frame_seq, reply_to))
        self.stats.queue_peak = max(self.stats.queue_peak, len(self._queue))
        self._try_dispatch()

    def _try_dispatch(self) -> None:
        while self._busy_units < self.units and self._queue:
            job = self._queue.popleft()
            self._busy_units += 1
            service = self._sample_service_ns()
            self.stats.busy_ns += service
            self.sim.schedule(self._finish, job, after=service)

    def _sample_service_ns(self) -> int:
        sigma = self.service_time_ns * self.service_cv
        return max(1_000, int(self.rng.normal(self.service_time_ns, sigma)))

    def _finish(self, job: tuple[str, int, str]) -> None:
        client_id, frame_seq, reply_to = job
        self._busy_units -= 1
        self.stats.frames_completed += 1
        self.stats.results_sent += 1
        self.host.send(
            dst=reply_to,
            payload_bytes=800,
            traffic_class=TrafficClass.LATENCY_SENSITIVE,
            flow_id=f"mlres:{self.host.name}",
            sequence=frame_seq,
            payload={
                "type": "ml_result",
                "client": client_id,
                "frame": frame_seq,
            },
        )
        self._try_dispatch()
