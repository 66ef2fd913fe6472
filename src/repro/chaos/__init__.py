"""Chaos campaigns: systematic, deterministic, observable fault injection.

The paper's availability claims (§2.2 classes, §4 switchover) are
robustness claims; this package turns ad-hoc fault injection into a
first-class subsystem:

- :mod:`repro.chaos.scenario` — declarative
  :class:`~repro.chaos.scenario.FaultScenario` descriptions (link flaps,
  PLC crashes, host-wide virtualization incidents, correlated outages,
  scheduled maintenance windows) with analytic availability predictions;
- :mod:`repro.chaos.engine` — the campaign engine:
  :func:`~repro.chaos.engine.run_campaign` executes a scenario with
  per-component random streams, measures per-cell availability, and
  judges it against the §2 availability classes; a campaign is a pure
  function of ``(scenario, seed)``;
- :mod:`repro.chaos.spec` — :class:`~repro.chaos.spec.ChaosSpec` projects
  campaigns into the figure registry (``chaos-*``) so the parallel runner
  sweeps them and records verdicts in the run manifest.

CLI: ``repro sweep chaos-*`` runs and judges campaigns, ``repro report``
renders their verdicts, and ``repro chaos list|replay RUN`` lists them
and re-checks a sweep's stored rows (see :mod:`repro.chaos.cli`).
"""

from .engine import (
    CampaignResult,
    CellReport,
    intervals_fingerprint,
    run_campaign,
)
from .scenario import (
    KINDS,
    SCENARIOS,
    ComponentSpec,
    FaultScenario,
    MaintenanceSpec,
    get_scenario,
)
from .spec import (
    CHAOS_PARAMS,
    CHAOS_PREFIX,
    ChaosSpec,
    campaign_verdict,
    chaos_registry,
    figure_specs,
)

__all__ = [
    "CHAOS_PARAMS",
    "CHAOS_PREFIX",
    "CampaignResult",
    "CellReport",
    "ChaosSpec",
    "ComponentSpec",
    "FaultScenario",
    "KINDS",
    "MaintenanceSpec",
    "SCENARIOS",
    "campaign_verdict",
    "chaos_registry",
    "figure_specs",
    "get_scenario",
    "intervals_fingerprint",
    "run_campaign",
]
