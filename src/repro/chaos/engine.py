"""The chaos campaign engine: run, measure, judge, replay.

A *campaign* executes one :class:`~repro.chaos.scenario.FaultScenario` on
the discrete-event simulator: every stochastic component becomes an
exponential renewal process on its **own** named random stream
(``chaos/<scenario>/<component>``), every maintenance window becomes a
deterministic periodic process, and a
:class:`~repro.core.faults.CellDowntimeLog` tracks each cell's outage
intervals.  The result is judged twice:

- **compliance** — measured availability against the scenario's
  :class:`~repro.core.requirements.AvailabilityRequirement` (the §2
  availability classes), yielding the pass/fail *verdict*;
- **validation** — measured against the analytic steady-state prediction,
  within the scenario's documented tolerance (the model-vs-measurement
  agreement contract).

Determinism contract: a campaign is a pure function of
``(scenario, seed)``.  Per-component streams mean the failure schedule of
one component never depends on any other, so two runs produce
byte-identical per-cell outage intervals — :meth:`CampaignResult.fingerprint`
is the replay identity.  Each verdict row carries its cell's interval
fingerprint, so ``repro chaos replay`` re-checks a sweep's stored rows
against a fresh run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.faults import FaultInjector, FaultTarget, MaintenanceWindow
from ..figures import Rows
from ..obs import get_telemetry, get_tracer
from ..simcore import Simulator
from ..simcore.units import SEC
from .scenario import ComponentSpec, FaultScenario, MaintenanceSpec


def _noop() -> None:
    return None


@dataclass
class CellReport:
    """Measured vs required vs predicted availability for one cell."""

    cell: int
    outages: int
    downtime_ns: int
    availability: float
    predicted: float
    required: float
    ok: bool
    within_tolerance: bool
    fingerprint: str


@dataclass
class CampaignResult:
    """Everything one campaign run produced, replayable from its header."""

    scenario: str
    seed: int
    cells: int
    horizon_ns: int
    requirement: str
    required: float
    tolerance: float
    faults_injected: int
    params: dict[str, Any] = field(default_factory=dict)
    reports: list[CellReport] = field(default_factory=list)
    #: per-cell outage intervals — the bit-identical replay identity
    intervals: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        """``pass`` when every cell meets the availability class."""
        return "pass" if all(report.ok for report in self.reports) else "fail"

    @property
    def mean_availability(self) -> float:
        return sum(r.availability for r in self.reports) / len(self.reports)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of all outage intervals."""
        return intervals_fingerprint(self.intervals)

    def rows(self) -> Rows:
        """Per-cell verdict rows (the campaign's :class:`Rows` form)."""
        return Rows(
            {
                "scenario": self.scenario,
                "cell": report.cell,
                "outages": report.outages,
                "downtime_ns": report.downtime_ns,
                "availability": round(report.availability, 9),
                "predicted": round(report.predicted, 9),
                "required": round(report.required, 9),
                "ok": report.ok,
                "within_tolerance": report.within_tolerance,
                "fingerprint": report.fingerprint,
            }
            for report in self.reports
        )


def intervals_fingerprint(
    intervals: dict[int, list[tuple[int, int]]]
) -> str:
    """Canonical SHA-256 of per-cell outage intervals."""
    canonical = json.dumps(
        {
            str(cell): [list(pair) for pair in intervals[cell]]
            for cell in sorted(intervals)
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cell_fingerprint(pairs: list[tuple[int, int]]) -> str:
    canonical = json.dumps([list(pair) for pair in pairs],
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def run_campaign(
    scenario: FaultScenario,
    seed: int = 0,
    params: dict[str, Any] | None = None,
) -> CampaignResult:
    """Execute one chaos campaign; pure function of ``(scenario, seed)``.

    ``params`` is recorded verbatim for provenance.
    """
    sim = Simulator(seed=seed)
    injector = FaultInjector(
        sim,
        cells=scenario.cells,
        per_target_streams=True,
        stream_prefix=f"chaos/{scenario.name}",
    )
    telemetry = get_telemetry()

    def _flight_action(name: str, kind: str) -> Callable[[], None]:
        """A fail/repair action.  When telemetry is on, it notes the fault
        on the flight recorder and snapshots the fabric's recent history
        the moment a fault fires; otherwise it does nothing."""
        if not telemetry.enabled:
            return _noop

        def action() -> None:
            telemetry.flight.note(name, sim.now, f"chaos.{kind}")
            if kind == "fault":
                telemetry.flight.snapshot(f"chaos.fault:{name}", sim.now)

        return action

    for component in scenario.components:
        fail = _flight_action(component.name, "fault")
        repair = _flight_action(component.name, "repair")
        injector.register(
            FaultTarget(
                name=component.name,
                component_class=_component_class(component),
                fail=fail,
                repair=repair,
                affected_cells=component.affected_cells,
            )
        )
    for window in scenario.maintenance:
        fail = _flight_action(window.name, "maintenance")
        repair = _flight_action(window.name, "repair")
        injector.register_maintenance(
            MaintenanceWindow(
                target=FaultTarget(
                    name=window.name,
                    component_class=_window_class(window),
                    fail=fail,
                    repair=repair,
                    affected_cells=window.affected_cells,
                ),
                period_ns=int(window.period_s * SEC),
                duration_ns=int(window.duration_s * SEC),
                first_start_ns=int(window.first_start_s * SEC),
            )
        )

    horizon_ns = scenario.horizon_ns
    with get_tracer().span(
        "chaos.campaign", scenario=scenario.name, seed=seed,
        cells=scenario.cells, horizon_ns=horizon_ns,
    ) as span:
        injector.start()
        sim.run(until=horizon_ns)
        injector.stop()
        span.set(faults=injector.failures_injected)

    predicted = scenario.predicted_availability()
    required = scenario.requirement.availability
    intervals = injector.outage_intervals(horizon_ns)
    reports = []
    for log in injector.logs:
        availability = log.availability(horizon_ns)
        reports.append(
            CellReport(
                cell=log.cell,
                outages=len(intervals[log.cell]),
                downtime_ns=log.downtime_ns(horizon_ns),
                availability=availability,
                predicted=predicted[log.cell],
                required=required,
                ok=scenario.requirement.admits(availability),
                within_tolerance=(
                    abs(availability - predicted[log.cell])
                    <= scenario.tolerance
                ),
                fingerprint=_cell_fingerprint(intervals[log.cell]),
            )
        )
    return CampaignResult(
        scenario=scenario.name,
        seed=seed,
        cells=scenario.cells,
        horizon_ns=horizon_ns,
        requirement=scenario.requirement.name,
        required=required,
        tolerance=scenario.tolerance,
        faults_injected=injector.failures_injected,
        params=dict(params or {}),
        reports=reports,
        intervals=intervals,
    )


def _component_class(component: ComponentSpec):
    from ..core.availability_analysis import ComponentClass

    return ComponentClass(
        name=component.name,
        mtbf_s=component.mtbf_s,
        mttr_s=component.mttr_s,
    )


def _window_class(window: MaintenanceSpec):
    from ..core.availability_analysis import ComponentClass

    # MTBF/MTTR rendering of the deterministic schedule, for reporting.
    return ComponentClass(
        name=window.name,
        mtbf_s=window.period_s - window.duration_s,
        mttr_s=window.duration_s,
    )
