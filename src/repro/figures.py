"""Programmatic figure regeneration behind a declarative spec registry.

Each of the paper's artifacts is described by a :class:`FigureSpec` — name,
one-line summary, parameter schema with defaults, and the callable that
reruns the experiment.  Specs are the contract shared by the command-line
interface (``python -m repro``), the parallel experiment engine
(:mod:`repro.runner`), and the benchmark suite::

    from repro.figures import registry

    spec = registry()["fig5"]
    rows = spec.run(seed=3)          # validated params, Rows result
    print(rows.to_table())

Figure functions return :class:`Rows` — a ``list`` of dicts with
``to_csv()`` / ``to_json()`` / ``to_table()`` serialization helpers.

Importing this module loads no figure model and no numpy: each figure
function imports its model when it runs, so the CLI, the runner and a
fresh sweep worker start without paying for models they never run.  The
model entry points the figures call (:func:`generate_corpus`,
:func:`analyze_corpus`, :func:`run_variant_sweep`,
:func:`run_flow_scaling`, :func:`run_fig5`) are module-level forwarders,
looked up as globals at call time, so wrapping them with ``setattr``
intercepts every figure's call.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .obs import get_tracer
from .simcore.units import MS

#: Render formats understood by :meth:`Rows.render` and the CLI ``--format``.
FORMATS = ("table", "csv", "json")

#: Status marker rendered for cells that produced no data (see
#: :func:`failure_rows`).
FAILED_MARKER = "(failed)"


def failure_rows(figure: str, error: str | None = None) -> Rows:
    """Placeholder rows for a sweep cell that failed to produce data.

    Degraded sweeps still render and export every requested figure; cells
    that crashed or timed out contribute one marker row instead of
    silently vanishing from the output.
    """
    return Rows(
        [{"figure": figure, "status": FAILED_MARKER,
          "error": error or "unknown error"}]
    )


class Rows(list):
    """A list of plain-dict rows with serialization helpers.

    Subclasses ``list`` so every pre-existing consumer (CSV writers, row
    comparisons, ``len``) keeps working unchanged.
    """

    def to_csv(self) -> str:
        """Render as CSV text with a header row."""
        if not self:
            return ""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(self[0].keys()))
        writer.writeheader()
        writer.writerows(self)
        return buffer.getvalue()

    def to_json(self, indent: int | None = None) -> str:
        """Render as a JSON array of objects."""
        return json.dumps(list(self), indent=indent)

    def to_table(self) -> str:
        """Render as an aligned text table."""
        if not self:
            return "(no data)"
        headers = list(self[0].keys())
        widths = [
            max(len(str(header)), *(len(str(row[header])) for row in self))
            for header in headers
        ]
        lines = [
            "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
            "-" * (sum(widths) + 2 * (len(widths) - 1)),
        ]
        for row in self:
            lines.append(
                "  ".join(str(row[h]).ljust(w) for h, w in zip(headers, widths))
            )
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        """Render in one of :data:`FORMATS`."""
        if fmt == "table":
            return self.to_table()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json(indent=2)
        raise ValueError(
            f"unknown format {fmt!r}; choose one of {', '.join(FORMATS)}"
        )


class UnknownFigureError(ValueError):
    """Raised for a figure name not present in the registry."""

    def __init__(self, name: str, available: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown figure {name!r}; available: {', '.join(available)}"
        )
        self.name = name
        self.available = available


def parse_int_tuple(text: str) -> tuple[int, ...]:
    """Parse ``"1,5,25"`` (or ``"1:5:25"``) into ``(1, 5, 25)``.

    The ``:`` separator exists for ``--param`` grid values, where ``,``
    already separates grid entries.
    """
    if isinstance(text, (tuple, list)):
        return tuple(int(v) for v in text)
    parts = str(text).replace(":", ",").split(",")
    return tuple(int(part) for part in parts if part.strip())


@dataclass(frozen=True)
class ParamSpec:
    """One tunable parameter of a figure experiment."""

    name: str
    default: Any
    doc: str = ""
    #: Parser applied to string values (CLI flags, ``--param`` grids).
    parse: Callable[[str], Any] = int

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` (possibly a string) to the parameter's type."""
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(self.default, tuple) and isinstance(value, list):
            return tuple(value)
        return value


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one reproducible figure."""

    name: str
    doc: str
    fn: Callable[..., Rows]
    params: tuple[ParamSpec, ...] = field(default_factory=tuple)
    #: Optional pass/fail judge over the produced rows; the experiment
    #: runner records its result in the run manifest (chaos campaigns use
    #: this to turn sweeps into compliance matrices).
    verdict: Callable[[Rows], str | None] | None = None

    def defaults(self) -> dict[str, Any]:
        """Default value for every parameter."""
        return {p.name: p.default for p in self.params}

    def resolve(self, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Merge ``overrides`` into the defaults, rejecting unknown names."""
        params = self.defaults()
        for key, value in (overrides or {}).items():
            if key not in params:
                valid = ", ".join(p.name for p in self.params) or "(none)"
                raise ValueError(
                    f"figure {self.name!r} has no parameter {key!r}; "
                    f"valid parameters: {valid}"
                )
            params[key] = self.param(key).coerce(value)
        return params

    def param(self, name: str) -> ParamSpec:
        """Look up one :class:`ParamSpec` by name."""
        for spec in self.params:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def run(self, seed: int = 0, **overrides: Any) -> Rows:
        """Execute the experiment with validated parameters."""
        params = self.resolve(overrides)
        with get_tracer().span(
            "figure.run", figure=self.name, seed=seed, **params
        ):
            return self.fn(seed=seed, **params)


def _forward(module: str, name: str) -> Callable[..., Any]:
    """A stand-in for ``module.name`` that imports the model on each call
    (a ``sys.modules`` lookup after the first)."""

    def forward(*args: Any, **kwargs: Any) -> Any:
        model = importlib.import_module(module, __package__)
        return getattr(model, name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.__doc__ = f"Call :func:`repro{module}.{name}`."
    return forward


#: The model entry points the figure functions call, looked up as globals
#: of this module at call time, so a caller can wrap them with ``setattr``
#: (the benchmark's layer spans do).
generate_corpus = _forward(".corpus", "generate_corpus")
analyze_corpus = _forward(".corpus", "analyze_corpus")
run_variant_sweep = _forward(".reflection", "run_variant_sweep")
run_flow_scaling = _forward(".reflection", "run_flow_scaling")
run_fig5 = _forward(".instaplc", "run_fig5")


def fig1(seed: int = 0) -> Rows:
    """Figure 1: term occurrences with permutations."""
    from .corpus import PAPER_COUNTS

    report = analyze_corpus(generate_corpus(seed=seed))
    return Rows(
        {
            "term_group": name,
            "occurrences": count,
            "paper": PAPER_COUNTS[name],
        }
        for name, count in sorted(report.counts.items(), key=lambda i: i[1])
    )


def fig4_delay(cycles: int = 400, seed: int = 0) -> Rows:
    """Figure 4 left: delay quantiles per eBPF variant (µs)."""
    from .ebpf import paper_variants

    results = run_variant_sweep(paper_variants(), cycles=cycles, seed=seed)
    rows = Rows()
    for name, result in results.items():
        cdf = result.delay_cdf()
        rows.append(
            {
                "variant": name,
                "p50_us": round(cdf.quantile(0.5), 3),
                "p90_us": round(cdf.quantile(0.9), 3),
                "p99_us": round(cdf.quantile(0.99), 3),
            }
        )
    return rows


def fig4_jitter(
    flow_counts: tuple[int, ...] = (1, 5, 25),
    cycles: int = 400,
    seed: int = 0,
) -> Rows:
    """Figure 4 right: jitter quantiles vs concurrent flows (ns)."""
    from .ebpf import paper_variants

    results = run_flow_scaling(
        paper_variants()[0], list(flow_counts), cycles=cycles, seed=seed
    )
    rows = Rows()
    for count, result in results.items():
        cdf = result.jitter_cdf()
        rows.append(
            {
                "flows": count,
                "p50_ns": round(cdf.quantile(0.5)),
                "p90_ns": round(cdf.quantile(0.9)),
                "p99_ns": round(cdf.quantile(0.99)),
            }
        )
    return rows


def fig5(duration_ms: int = 3000, crash_ms: int = 1500, seed: int = 0) -> Rows:
    """Figure 5: packets per 50 ms around the switchover."""
    result = run_fig5(
        duration_ns=duration_ms * MS, crash_ns=crash_ms * MS, seed=seed
    )
    vplc1 = result.binned("vplc1").counts
    vplc2 = result.binned("vplc2").counts
    to_io = result.binned("to_io").counts
    return Rows(
        {
            "t_ms": index * 50,
            "from_vplc1": int(vplc1[index]),
            "from_vplc2": int(vplc2[index]),
            "to_io": int(to_io[index]),
        }
        for index in range(len(to_io))
    )


def fig6(duration_ms: int = 400, seed: int = 0) -> Rows:
    """Figure 6: mean inference latency per app/topology/client count."""
    from .mlnet import (
        DEFECT_DETECTION,
        OBJECT_IDENTIFICATION,
        PAPER_CLIENT_COUNTS,
        run_point,
    )

    rows = Rows()
    for app in (OBJECT_IDENTIFICATION, DEFECT_DETECTION):
        for topology in ("ring", "leaf-spine", "ml-aware"):
            for clients in PAPER_CLIENT_COUNTS:
                point = run_point(
                    app, topology, clients,
                    duration_ns=duration_ms * MS, seed=seed,
                )
                rows.append(
                    {
                        "app": app.name,
                        "topology": topology,
                        "clients": clients,
                        "mean_latency_ms": round(point.mean_latency_ms, 3),
                        "p99_latency_ms": round(point.p99_latency_ms, 3),
                    }
                )
    return rows


_SPECS: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec(
            name="fig1",
            doc="Figure 1: term occurrences with permutations.",
            fn=fig1,
        ),
        FigureSpec(
            name="fig4-delay",
            doc="Figure 4 left: delay quantiles per eBPF variant (µs).",
            fn=fig4_delay,
            params=(
                ParamSpec("cycles", 400, "reflection cycles per variant"),
            ),
        ),
        FigureSpec(
            name="fig4-jitter",
            doc="Figure 4 right: jitter quantiles vs concurrent flows (ns).",
            fn=fig4_jitter,
            params=(
                ParamSpec(
                    "flow_counts", (1, 5, 25),
                    "concurrent flow counts (comma-separated)",
                    parse=parse_int_tuple,
                ),
                ParamSpec("cycles", 400, "reflection cycles per flow count"),
            ),
        ),
        FigureSpec(
            name="fig5",
            doc="Figure 5: packets per 50 ms around the switchover.",
            fn=fig5,
            params=(
                ParamSpec("duration_ms", 3000, "simulated duration (ms)"),
                ParamSpec("crash_ms", 1500, "vPLC1 crash instant (ms)"),
            ),
        ),
        FigureSpec(
            name="fig6",
            doc="Figure 6: mean inference latency per app/topology/client count.",
            fn=fig6,
            params=(
                ParamSpec("duration_ms", 400, "simulated duration (ms)"),
            ),
        ),
    )
}


def registry() -> dict[str, FigureSpec]:
    """A fresh name → :class:`FigureSpec` mapping of every known figure."""
    return dict(_SPECS)


def get_spec(name: str) -> FigureSpec:
    """Resolve ``name``, raising :class:`UnknownFigureError` with the
    available names on a miss.

    Chaos campaigns (``chaos-*``, see :mod:`repro.chaos.spec`) resolve
    here too, so the runner and CLI sweep them like any figure;
    :func:`registry` itself stays figure-only (``repro all`` regenerates
    the paper's artifacts, not fault campaigns).
    """
    try:
        return _SPECS[name]
    except KeyError:
        pass
    # Late import: repro.chaos builds on Rows/FigureSpec defined above.
    from .chaos.spec import figure_specs
    from .faultdemo import demo_fault_specs

    chaos_specs = figure_specs()
    try:
        return chaos_specs[name]
    except KeyError:
        pass
    # Intentionally faulty demo figures (runner fault-tolerance smoke
    # tests); empty unless REPRO_DEMO_FAULTS is set in the environment.
    demo_specs = demo_fault_specs()
    try:
        return demo_specs[name]
    except KeyError:
        raise UnknownFigureError(
            name, tuple(_SPECS) + tuple(chaos_specs) + tuple(demo_specs)
        ) from None


def run_figure(name: str, seed: int = 0, **overrides: Any) -> Rows:
    """Validate ``name`` and parameters, then run the figure."""
    return get_spec(name).run(seed=seed, **overrides)

