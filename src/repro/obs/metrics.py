"""Labelled metrics: counters, fixed-bucket histograms, registry.

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

A :class:`Counter` is one owner's cell: every ``counter()`` call returns a
fresh cell, so a device whose public count is a property over its cell
reads its own count even when another device shares its name.  The
registry files each cell under its ``(name, labels)`` key and sums the
cells of a key at :meth:`MetricsRegistry.snapshot`.  Histograms are shared
get-or-create instruments, one per key.

When observability is disabled (the default), :func:`repro.obs.get_registry`
returns the :class:`NullRegistry`, whose counters are the same cells left
unfiled (so devices count alike with or without a capture) and whose
histograms are a shared no-op — the hot-path cost reduces to a single
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
    """One owner's count; the registry sums the cells that share a key."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (which must not be negative)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.value})"


class Histogram:
    """A fixed-bucket histogram of nanosecond-valued observations.

    ``edges[i]`` is the exclusive upper bound of bucket ``i``; one overflow
    bucket past the last edge catches everything larger, so ``counts`` has
    ``len(edges) + 1`` entries and every observation lands somewhere.
    """

    __slots__ = ("name", "labels", "edges", "counts", "count", "sum", "min", "max")

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

    def observe(self, value: float) -> None:
        pass


NULL_HISTOGRAM = _NullHistogram()


#: ``(name, sorted label items)``: the identity of one metric.
_Key = tuple[str, tuple[tuple[str, Any], ...]]


class MetricsRegistry:
    """Store of labelled instruments, keyed by ``(name, sorted labels)``.

    :meth:`counter` files a fresh cell under its key on every call, and
    :meth:`snapshot` reports the sum of a key's cells — every FIFO queue
    owns its own drop cell, and ``net.queue.drops{kind=fifo}`` is their
    total.  :meth:`histogram` is get-or-create: asking twice with the same
    identity returns the same object.  A key holds one kind only.
    """

    def __init__(self) -> None:
        self._cells: dict[_Key, list[Counter]] = {}
        self._histograms: dict[_Key, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, tuple(sorted(labels.items())))
        if key in self._histograms:
            raise ValueError(
                f"metric {name!r}{_label_key(labels)} already registered "
                f"as a histogram"
            )
        cell = Counter()
        self._cells.setdefault(key, []).append(cell)
        return cell

    def histogram(
        self, name: str, edges: Sequence[int] | None = None, **labels: Any
    ) -> Histogram:
        key = (name, tuple(sorted(labels.items())))
        histogram = self._histograms.get(key)
        if histogram is None:
            if key in self._cells:
                raise ValueError(
                    f"metric {name!r}{_label_key(labels)} already registered "
                    f"as a counter"
                )
            histogram = self._histograms[key] = Histogram(name, labels, edges)
        return histogram

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: ``{"counters": {...}, "histograms": {...}}``.

        Keys are ``name{label=value,...}`` strings; a counter's value is
        the sum of its key's cells, a histogram's is its bucket dict.  Both
        sections are key-sorted — registration order depends on component
        construction order, and a stable export is what lets manifests,
        reports, and goldens diff cleanly.
        """
        counters = {
            name + _label_key(dict(labels)): sum(cell.value for cell in cells)
            for (name, labels), cells in self._cells.items()
        }
        histograms = {
            name + _label_key(dict(labels)): histogram.snapshot()
            for (name, labels), histogram in self._histograms.items()
        }
        return {
            "counters": dict(sorted(counters.items())),
            "histograms": dict(sorted(histograms.items())),
        }


class NullRegistry:
    """Registry stand-in used while observability is disabled.

    Counters are the same cells a live registry hands out, left unfiled —
    devices whose counts are properties over their cells count alike with
    or without an active capture — while histograms collapse to the
    shared no-op, since pure-telemetry observations would otherwise pay
    bucket search on every packet.
    """

    def counter(self, name: str, **labels: Any) -> Counter:
        return Counter()

    def histogram(
        self, name: str, edges: Sequence[int] | None = None, **labels: Any
    ) -> _NullHistogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "histograms": {}}


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
