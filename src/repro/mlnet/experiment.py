"""The Figure 6 experiment: ML inference latency across topologies.

For each client count (32/64/128/256 in the paper) and each application
(object identification, defect detection), build the three candidate
deployments, stream frames for a fixed horizon, and report the mean
end-to-end inference latency.  Expected shape: ring worst, leaf-spine
slightly better, ML-aware clearly best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simcore import Simulator
from ..simcore.units import MS, SEC
from .models import DEFECT_DETECTION, MlAppProfile, OBJECT_IDENTIFICATION
from .serving import MlClient
from .topologies import (
    MlDeployment,
    build_leaf_spine_deployment,
    build_ml_aware_deployment,
    build_ring_deployment,
)

#: Figure 6 x-axis.
PAPER_CLIENT_COUNTS = (32, 64, 128, 256)

TOPOLOGY_BUILDERS = {
    "ring": build_ring_deployment,
    "leaf-spine": build_leaf_spine_deployment,
    "ml-aware": build_ml_aware_deployment,
}


@dataclass(frozen=True)
class Fig6Point:
    """One (application, topology, client-count) measurement."""

    app: str
    topology: str
    clients: int
    mean_latency_ms: float
    p99_latency_ms: float
    frames_measured: int
    frame_bytes: int


def run_deployment(
    deployment: MlDeployment,
    profile: MlAppProfile,
    sim: Simulator,
    duration_ns: int = 1 * SEC,
    warmup_ns: int = 200 * MS,
) -> tuple[float, float, int]:
    """Stream frames over a built deployment; return latency stats."""
    offsets = sim.streams.stream("fig6/offsets")
    period_ns = round(1e9 / profile.fps)
    clients = [
        MlClient(
            sim,
            host,
            server_name=deployment.server_for(host.name),
            frame_bytes=deployment.frame_bytes,
            fps=profile.fps,
            start_ns=int(offsets.integers(0, period_ns)),
        )
        for host in deployment.client_hosts
    ]
    for client in clients:
        client.start()
    sim.run(until=duration_ns)
    for client in clients:
        client.stop()
    latencies = []
    for client in clients:
        stamps = np.asarray(client.stats.latencies_ns, dtype=np.int64)
        # Ignore warmup frames: count completions after the warmup horizon.
        keep = max(0, int(round((warmup_ns / duration_ns) * stamps.size)))
        latencies.append(stamps[keep:])
    measured = [s for s in latencies if s.size]
    if not measured:
        raise RuntimeError(
            f"no frames completed on {deployment.name} after the "
            f"{warmup_ns / MS:g} ms warm-up; the run is too short, or the "
            f"deployment is overloaded or broken"
        )
    merged = np.concatenate(measured) / 1e6
    return float(np.mean(merged)), float(np.percentile(merged, 99)), int(merged.size)


def run_point(
    app: MlAppProfile,
    topology: str,
    clients: int,
    duration_ns: int = 1 * SEC,
    seed: int = 0,
) -> Fig6Point:
    """Build and run one Figure 6 data point."""
    builder = TOPOLOGY_BUILDERS[topology]
    sim = Simulator(seed=seed)
    deployment = builder(sim, clients, app)
    mean_ms, p99_ms, count = run_deployment(
        deployment, app, sim, duration_ns=duration_ns
    )
    return Fig6Point(
        app=app.name,
        topology=topology,
        clients=clients,
        mean_latency_ms=mean_ms,
        p99_latency_ms=p99_ms,
        frames_measured=count,
        frame_bytes=deployment.frame_bytes,
    )


def run_fig6(
    client_counts: tuple[int, ...] = PAPER_CLIENT_COUNTS,
    apps: tuple[MlAppProfile, ...] = (OBJECT_IDENTIFICATION, DEFECT_DETECTION),
    topologies: tuple[str, ...] = ("ring", "leaf-spine", "ml-aware"),
    duration_ns: int = 1 * SEC,
    seed: int = 0,
) -> list[Fig6Point]:
    """The full Figure 6 sweep."""
    points = []
    for app in apps:
        for topology in topologies:
            for clients in client_counts:
                points.append(
                    run_point(
                        app, topology, clients,
                        duration_ns=duration_ns, seed=seed,
                    )
                )
    return points


def as_series(points: list[Fig6Point]) -> dict[str, dict[str, list[float]]]:
    """Regroup points as ``{app: {topology: [latency per client count]}}``."""
    series: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for point in points:
        series.setdefault(point.app, {}).setdefault(point.topology, []).append(
            (point.clients, point.mean_latency_ms)
        )
    return {
        app: {
            topology: [latency for _, latency in sorted(samples)]
            for topology, samples in by_topology.items()
        }
        for app, by_topology in series.items()
    }
