"""Simulated clocks: drift, granularity, and PTP-style synchronization.

The paper's Traffic Reflection method (Section 3) exists precisely because
*multi-clock* measurements are unreliable: IEEE 1588 PTP reaches sub-1 us
accuracy but suffers from asymmetric path delays, while a hardware tap stamps
both directions with a single clock at 8 ns granularity.  These models let
the reproduction quantify that difference.

A :class:`Clock` maps true simulation time to the time the clock *reads*:

``reading(t) = quantize(offset + (1 + drift_ppm * 1e-6) * t + noise)``
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class Clock:
    """A free-running clock with offset, drift, noise, and granularity.

    Parameters
    ----------
    offset_ns:
        Constant offset from true time.
    drift_ppm:
        Frequency error in parts per million (positive = runs fast).
    granularity_ns:
        Timestamp quantization step.  A hardware tap has ~8 ns; a TSC-based
        software clock effectively ~1 ns; a jiffy clock much coarser.
    noise_std_ns:
        Gaussian read noise standard deviation.
    """

    name: str = "clock"
    offset_ns: float = 0.0
    drift_ppm: float = 0.0
    granularity_ns: int = 1
    noise_std_ns: float = 0.0
    rng: np.random.Generator | None = field(default=None, repr=False)

    def read(self, true_time_ns: int) -> int:
        """Return this clock's reading at the given true time."""
        value = self.offset_ns + (1.0 + self.drift_ppm * 1e-6) * true_time_ns
        if self.noise_std_ns > 0.0:
            if self.rng is None:
                # Lazily create ONE generator and keep it: a fresh
                # default_rng(0) per read would hand every noisy read the
                # same noise sample.  Seed from the clock name so distinct
                # unseeded clocks draw independent, reproducible streams.
                digest = hashlib.blake2s(self.name.encode(), digest_size=8)
                seed = int.from_bytes(digest.digest(), "little")
                import numpy as np

                self.rng = np.random.default_rng(seed)
            value += self.rng.normal(0.0, self.noise_std_ns)
        if self.granularity_ns > 1:
            value = round(value / self.granularity_ns) * self.granularity_ns
        return int(round(value))

    def error_at(self, true_time_ns: int) -> float:
        """Deterministic clock error (reading minus truth) ignoring noise."""
        return self.offset_ns + self.drift_ppm * 1e-6 * true_time_ns


@dataclass
class PtpSyncModel:
    """IEEE 1588 synchronization residual-error model.

    After a PTP sync exchange the slave's residual offset is dominated by the
    *asymmetry* between master->slave and slave->master path delays (the
    protocol can only estimate the mean path delay), plus timestamping noise.
    Between syncs the offset grows with residual drift.

    This reproduces the paper's point that PTP "encounters challenges related
    to asymmetric delays and network inconsistencies" despite sub-1 us
    nominal accuracy.
    """

    sync_interval_ns: int = 1_000_000_000
    path_asymmetry_ns: float = 200.0
    timestamp_noise_ns: float = 50.0
    residual_drift_ppm: float = 0.05

    def residual_error_ns(
        self, time_since_sync_ns: int, rng: np.random.Generator
    ) -> float:
        """Sample the slave-clock error at a time after the last sync."""
        asymmetry = self.path_asymmetry_ns / 2.0
        noise = rng.normal(0.0, self.timestamp_noise_ns)
        drift = self.residual_drift_ppm * 1e-6 * time_since_sync_ns
        return asymmetry + noise + drift

    def synchronized_clock(
        self, name: str, rng: np.random.Generator
    ) -> Clock:
        """Create a clock whose parameters reflect post-sync residuals."""
        return Clock(
            name=name,
            offset_ns=self.path_asymmetry_ns / 2.0,
            drift_ppm=self.residual_drift_ppm,
            noise_std_ns=self.timestamp_noise_ns,
            granularity_ns=1,
            rng=rng,
        )


def tap_clock(name: str = "tap", granularity_ns: int = 8) -> Clock:
    """The single-clock hardware tap of Section 3 (8 ns timestamping)."""
    return Clock(name=name, granularity_ns=granularity_ns)
