"""``ChaosSpec`` — declarative campaigns alongside ``FigureSpec``.

A :class:`ChaosSpec` describes one sweepable chaos campaign the way a
:class:`~repro.figures.FigureSpec` describes one figure: a name, a doc
line, a scenario factory, and a parameter schema (``cells`` /
``mtbf_scale`` / ``mttr_scale`` / ``horizon_s``).  Each spec also projects
itself into the figure registry under ``chaos-<scenario>`` so the whole
PR-1 runner stack — :func:`repro.runner.expand_grid`,
:func:`repro.runner.run_jobs`, the result cache, and ``repro sweep`` —
drives campaigns without special cases::

    from repro.runner import expand_grid, run_jobs

    jobs = expand_grid(
        ["chaos-link-flaps", "chaos-correlated"],
        seeds=range(3),
        grid={"mttr_scale": [1, 2, 4]},
    )
    result = run_jobs(jobs)
    result.manifest.records[0].verdict   # "pass" / "fail"

The projected figure carries a *verdict function* (all cells compliant →
``pass``), which the runner evaluates per job and records in the manifest —
so a sweep's manifest is a compliance matrix over (scenario × seed × MTBF ×
MTTR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..figures import FigureSpec, ParamSpec, Rows
from .engine import CampaignResult, run_campaign
from .scenario import SCENARIOS, FaultScenario

#: Figure-registry prefix for projected campaign specs.
CHAOS_PREFIX = "chaos-"

#: The shared sweepable parameter schema of every shipped scenario.
CHAOS_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec("cells", 4, "production cells in the plant"),
    ParamSpec(
        "mtbf_scale", 1.0, "multiplier on every component MTBF", parse=float
    ),
    ParamSpec(
        "mttr_scale", 1.0, "multiplier on every component MTTR", parse=float
    ),
    ParamSpec(
        "horizon_s", 3600.0, "observation horizon (compressed seconds)",
        parse=float,
    ),
)


def campaign_verdict(rows: Rows) -> str:
    """Manifest verdict for campaign rows: every cell must comply.

    Empty rows are a ``fail``: a campaign always produces at least one
    cell row, so an empty result (e.g. a failed or truncated sweep cell)
    cannot demonstrate compliance.
    """
    if not rows:
        return "fail"
    return "pass" if all(row.get("ok") for row in rows) else "fail"


@dataclass(frozen=True)
class ChaosSpec:
    """Declarative description of one sweepable chaos campaign."""

    name: str
    doc: str
    factory: Callable[..., FaultScenario]
    params: tuple[ParamSpec, ...] = CHAOS_PARAMS

    @property
    def figure_name(self) -> str:
        """Name this spec occupies in the figure registry."""
        return f"{CHAOS_PREFIX}{self.name}"

    def resolve(
        self, overrides: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """Merge ``overrides`` into the defaults, rejecting unknown names."""
        params = {p.name: p.default for p in self.params}
        for key, value in (overrides or {}).items():
            if key not in params:
                valid = ", ".join(p.name for p in self.params)
                raise ValueError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"valid parameters: {valid}"
                )
            spec = next(p for p in self.params if p.name == key)
            params[key] = spec.coerce(value)
        return params

    def build(self, **overrides: Any) -> FaultScenario:
        """Materialize the scenario with validated parameters."""
        return self.factory(**self.resolve(overrides))

    def run(self, seed: int = 0, **overrides: Any) -> CampaignResult:
        """Run one campaign and return the full replayable result."""
        params = self.resolve(overrides)
        return run_campaign(
            self.factory(**params), seed=seed, params=params
        )

    def to_figure_spec(self) -> FigureSpec:
        """Project into a :class:`FigureSpec` the runner can execute."""

        def fn(seed: int = 0, **params: Any) -> Rows:
            return self.run(seed=seed, **params).rows()

        fn.__name__ = self.figure_name.replace("-", "_")
        fn.__doc__ = self.doc
        return FigureSpec(
            name=self.figure_name,
            doc=self.doc,
            fn=fn,
            params=self.params,
            verdict=campaign_verdict,
        )


_CHAOS_SPECS: dict[str, ChaosSpec] = {
    name: ChaosSpec(
        name=name,
        doc=factory().doc,
        factory=factory,
    )
    for name, factory in SCENARIOS.items()
}

_FIGURE_SPECS: dict[str, FigureSpec] = {
    spec.figure_name: spec.to_figure_spec()
    for spec in _CHAOS_SPECS.values()
}


def chaos_registry() -> dict[str, ChaosSpec]:
    """A fresh scenario-name → :class:`ChaosSpec` mapping."""
    return dict(_CHAOS_SPECS)


def figure_specs() -> dict[str, FigureSpec]:
    """Campaigns projected as figure specs (``chaos-*`` names)."""
    return dict(_FIGURE_SPECS)
