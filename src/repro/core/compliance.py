"""Compliance evaluation: a cyclic arrival series against a timing class.

:func:`check_timing` decides whether a deployment meets a Section 2
timing class and says *why not* when it does not: worst-case jitter,
watchdog expirations and consecutive jitter events, the reporting
discipline the paper demands from vPLC evaluations.  The bound itself is
judged by :meth:`TimingRequirement.admits_jitter_ns`; a single worst-case
latency or an observed availability is judged directly by
:meth:`TimingRequirement.admits_latency_ns` and
:meth:`AvailabilityRequirement.admits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..metrics.jitter import (
    jitter_report,
    longest_consecutive_jitter,
    watchdog_expirations,
)
from .requirements import TimingRequirement


@dataclass(frozen=True)
class ComplianceResult:
    """Outcome of one check."""

    requirement: str
    passed: bool
    violations: tuple[str, ...] = ()
    details: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


def check_timing(
    requirement: TimingRequirement,
    arrivals_ns: "np.ndarray | list[int]",
    nominal_period_ns: int | None = None,
    watchdog_factor: int = 3,
    consecutive_jitter_threshold_ns: float | None = None,
) -> ComplianceResult:
    """Check a cyclic arrival series against a timing class.

    Evaluates worst-case jitter, watchdog expirations, and consecutive
    jitter events — the three under-reported metrics of Section 2.1.
    """
    period = nominal_period_ns or requirement.cycle_ns
    report = jitter_report(arrivals_ns, period)
    threshold = (
        consecutive_jitter_threshold_ns
        if consecutive_jitter_threshold_ns is not None
        else requirement.max_jitter_ns
    )
    run_length = longest_consecutive_jitter(arrivals_ns, period, threshold)
    expirations = watchdog_expirations(arrivals_ns, period, watchdog_factor)
    violations = []
    if not requirement.admits_jitter_ns(report.max_abs_jitter_ns):
        violations.append(
            f"worst-case jitter {report.max_abs_jitter_ns:.0f} ns exceeds "
            f"{requirement.max_jitter_ns} ns"
        )
    if expirations > 0:
        violations.append(
            f"{expirations} watchdog expiration(s) at factor {watchdog_factor}"
        )
    if run_length >= watchdog_factor:
        violations.append(
            f"consecutive jitter run of {run_length} cycles reaches the "
            f"watchdog factor"
        )
    return ComplianceResult(
        requirement=requirement.name,
        passed=not violations,
        violations=tuple(violations),
        details={
            "max_abs_jitter_ns": report.max_abs_jitter_ns,
            "mean_abs_jitter_ns": report.mean_abs_jitter_ns,
            "consecutive_jitter_run": float(run_length),
            "watchdog_expirations": float(expirations),
        },
    )

