"""Labelled metrics: counters, gauges, fixed-bucket histograms, registry.

The instruments follow the Prometheus naming model — a metric is identified
by a *name* plus a sorted set of ``label=value`` pairs — but are optimized
for a single-process simulation: an increment is one attribute update, and
a histogram observation is one :func:`bisect.bisect_right` over a fixed edge
list.  Components obtain instruments once (at construction) from the active
registry and hold the reference::

    from repro.obs import get_registry

    self._m_forwarded = get_registry().counter(
        "net.switch.frames", switch=name, outcome="forwarded"
    )
    ...
    self._m_forwarded.inc()

When observability is disabled (the default), :func:`repro.obs.get_registry`
returns the :class:`NullRegistry`, whose counters and gauges are *real but
unregistered* instruments (so components backed by them keep counting) and
whose histograms are a shared no-op — the hot-path cost reduces to a single
``pass`` method call.

Histogram bucket edges are nanosecond-valued and fixed at construction.
:func:`fixed_width_edges` reuses the fixed-width binning convention of
:mod:`repro.metrics.binning`, and uniform histograms convert back to a
:class:`repro.metrics.binning.BinnedSeries` via :meth:`Histogram.to_binned`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Sequence

#: Default nanosecond bucket edges: a 1-2-5 ladder from 100 ns to 10 s.
#: Wide enough for per-packet costs (100 ns) through whole-cycle latencies.
DEFAULT_NS_EDGES: tuple[int, ...] = tuple(
    mantissa * 10**exponent
    for exponent in range(2, 10)
    for mantissa in (1, 2, 5)
) + (10**10,)


def fixed_width_edges(
    bin_width_ns: int, bins: int, start_ns: int = 0
) -> tuple[int, ...]:
    """Uniform bucket edges matching :mod:`repro.metrics.binning` semantics.

    Edge ``i`` is the *exclusive* upper bound of bucket ``i``; the first
    bucket covers ``[start_ns, start_ns + bin_width_ns)`` exactly like
    :func:`repro.metrics.binning.bin_counts`.
    """
    if bin_width_ns <= 0:
        raise ValueError("bin width must be positive")
    if bins < 1:
        raise ValueError("need at least one bin")
    return tuple(start_ns + bin_width_ns * (i + 1) for i in range(bins))


def _label_key(labels: dict[str, Any]) -> str:
    """Canonical ``{a=1,b=x}`` suffix identifying a label set."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing labelled counter."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (which must not be negative)."""
        self.value += amount

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}{_label_key(self.labels)}={self.value})"


class Gauge:
    """A labelled value that can go up and down."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}{_label_key(self.labels)}={self.value})"


class Histogram:
    """A fixed-bucket histogram of nanosecond-valued observations.

    ``edges[i]`` is the exclusive upper bound of bucket ``i``; one overflow
    bucket past the last edge catches everything larger, so ``counts`` has
    ``len(edges) + 1`` entries and every observation lands somewhere.
    """

    __slots__ = ("name", "labels", "edges", "counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, Any] | None = None,
        edges: Sequence[int] | None = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels or {})
        resolved = tuple(edges) if edges is not None else DEFAULT_NS_EDGES
        if not resolved:
            raise ValueError("histogram needs at least one bucket edge")
        if len(set(resolved)) != len(resolved):
            raise ValueError("bucket edges must be distinct")
        # Buckets are identified by their upper bound, not by insertion
        # order: edges given in any order serialize ascending, so exports
        # (manifests, reports, goldens) are byte-stable.
        self.edges = tuple(sorted(resolved))
        self.counts = [0] * (len(resolved) + 1)
        self.count = 0
        self.sum = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target and bucket:
                if index < len(self.edges):
                    bound = float(self.edges[index])
                    if self.max is not None:
                        bound = min(bound, float(self.max))
                    return bound
                return float(self.max if self.max is not None else self.edges[-1])
        return float(self.max if self.max is not None else self.edges[-1])

    def is_uniform(self) -> bool:
        """Whether the buckets share one fixed width (binning-compatible)."""
        widths = {
            self.edges[i + 1] - self.edges[i]
            for i in range(len(self.edges) - 1)
        }
        return len(widths) <= 1

    def to_binned(self):
        """View the finite buckets as a :class:`~repro.metrics.binning.BinnedSeries`.

        Only defined for uniform (fixed-width) histograms such as those built
        with :func:`fixed_width_edges`; the overflow bucket is excluded.
        """
        import numpy as np

        from ..metrics.binning import BinnedSeries

        if not self.is_uniform():
            raise ValueError("only fixed-width histograms convert to BinnedSeries")
        width = (
            self.edges[1] - self.edges[0] if len(self.edges) > 1 else self.edges[0]
        )
        start = self.edges[0] - width
        return BinnedSeries(
            bin_width_ns=int(width),
            start_ns=int(start),
            counts=np.asarray(self.counts[:-1], dtype=np.int64),
        )

    def snapshot(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Histogram({self.name}{_label_key(self.labels)}, "
            f"count={self.count}, mean={self.mean:.1f})"
        )


class _NullHistogram:
    """Shared do-nothing histogram handed out while observability is off."""

    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float) -> None:
        pass


NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Get-or-create store of labelled instruments.

    Instruments are keyed by ``(name, sorted labels)``; asking twice with the
    same identity returns the same object, so independent components
    naturally share an aggregate (e.g. every FIFO queue increments the one
    ``net.queue.drops{kind=fifo}`` counter).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, Any], ...]], Any] = {}

    def _get(self, factory, name: str, labels: dict[str, Any], **kwargs):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, labels, **kwargs)
            self._metrics[key] = metric
            return metric
        if metric.kind != factory.kind:
            raise ValueError(
                f"metric {name!r}{_label_key(labels)} already registered "
                f"as a {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, edges: Sequence[int] | None = None, **labels: Any
    ) -> Histogram:
        return self._get(Histogram, name, labels, edges=edges)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: ``{"counters": {...}, "gauges": {}, "histograms": {}}``.

        Keys are ``name{label=value,...}`` strings, values are the
        instrument snapshots (plain ints for counters/gauges, a bucket dict
        for histograms).  Every section is key-sorted — registration order
        depends on component construction order, and a stable export is
        what lets manifests, reports, and goldens diff cleanly.
        """
        out: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for metric in sorted(
            self._metrics.values(),
            key=lambda m: f"{m.name}{_label_key(m.labels)}",
        ):
            key = f"{metric.name}{_label_key(metric.labels)}"
            out[metric.kind + "s"][key] = metric.snapshot()
        return out


class NullRegistry:
    """Registry stand-in used while observability is disabled.

    Counters and gauges are *real* but unregistered instances — components
    that expose their counts through them keep working with or without an
    active capture — while histograms collapse to the shared no-op, since
    pure-telemetry observations would otherwise pay bucket search on every
    packet.
    """

    def counter(self, name: str, **labels: Any) -> Counter:
        return Counter(name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return Gauge(name, labels)

    def histogram(
        self, name: str, edges: Sequence[int] | None = None, **labels: Any
    ) -> _NullHistogram:
        return NULL_HISTOGRAM

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_REGISTRY = NullRegistry()


def sorted_histogram_items(
    histograms: dict[str, Any]
) -> list[tuple[str, Any]]:
    """Histogram snapshot entries in deterministic key order.

    Manifest consumers (``repro obs``, ``repro report``) iterate exported
    histogram maps through this helper so pre-fix manifests — serialized
    in registration order — render identically to freshly written ones.
    """
    return sorted(histograms.items())


def format_ns(value: float | None) -> str:
    """A nanosecond figure in ns/us/ms with two decimals; ``-`` for none."""
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f}us"
    return f"{value:.0f}ns"
