"""Labelled metrics: instruments, registry identity, snapshots."""

import pytest

from repro.obs import (
    DEFAULT_NS_EDGES,
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    fixed_width_edges,
)
from repro.obs.metrics import NULL_HISTOGRAM


class TestCounter:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram("h", edges=[10, 20, 30])
        for value in (5, 10, 15, 25, 99):
            hist.observe(value)
        # edges are exclusive upper bounds: 10 goes to the second bucket.
        assert hist.counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.sum == 154
        assert hist.min == 5
        assert hist.max == 99

    def test_mean_and_quantile(self):
        hist = Histogram("h", edges=[10, 20, 30])
        for value in (5, 5, 5, 25):
            hist.observe(value)
        assert hist.mean == 10.0
        assert hist.quantile(0.5) == 10.0  # bucket upper bound
        assert hist.quantile(1.0) == 25.0  # exact max
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_default_edges_cover_ns_scales(self):
        hist = Histogram("h")
        assert hist.edges == DEFAULT_NS_EDGES
        hist.observe(1)            # below first edge
        hist.observe(10**11)       # beyond last edge -> overflow bucket
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=[])
        with pytest.raises(ValueError):
            Histogram("h", edges=[10, 5, 10])

    def test_edges_sort_regardless_of_insertion_order(self):
        hist = Histogram("h", edges=[30, 10, 20])
        assert hist.edges == (10, 20, 30)
        hist.observe(5)
        hist.observe(15)
        assert hist.counts == [1, 1, 0, 0]
        assert hist.snapshot()["edges"] == [10, 20, 30]

    def test_fixed_width_round_trips_to_binned_series(self):
        hist = Histogram("h", edges=fixed_width_edges(100, 5))
        for value in (0, 99, 100, 450):
            hist.observe(value)
        assert hist.is_uniform()
        series = hist.to_binned()
        assert series.bin_width_ns == 100
        assert list(series.counts) == [2, 1, 0, 0, 1]

    def test_non_uniform_rejects_binned_view(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=[1, 10, 100]).to_binned()


class TestRegistry:
    def test_same_identity_shares_instrument(self):
        registry = MetricsRegistry()
        a = registry.histogram("lat_ns", switch="sw0", outcome="fwd")
        b = registry.histogram("lat_ns", outcome="fwd", switch="sw0")
        assert a is b  # label order does not matter
        assert registry.histogram("lat_ns", switch="sw1", outcome="fwd") is not a

    def test_counters_are_per_owner_cells_summed_at_snapshot(self):
        registry = MetricsRegistry()
        a = registry.counter("frames", switch="sw0", outcome="fwd")
        b = registry.counter("frames", outcome="fwd", switch="sw0")
        assert a is not b
        a.inc(2)
        b.inc(3)
        registry.counter("frames", switch="sw1", outcome="fwd")
        assert (a.value, b.value) == (2, 3)
        assert registry.snapshot()["counters"] == {
            "frames{outcome=fwd,switch=sw0}": 5,
            "frames{outcome=fwd,switch=sw1}": 0,
        }

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="counter"):
            registry.histogram("x")
        registry.histogram("y")
        with pytest.raises(ValueError, match="histogram"):
            registry.counter("y")

    def test_snapshot_keys_and_groups(self):
        registry = MetricsRegistry()
        registry.counter("frames", switch="sw0").inc(3)
        registry.histogram("lat_ns").observe(150)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "histograms"}
        assert snap["counters"] == {"frames{switch=sw0}": 3}
        assert snap["histograms"]["lat_ns"]["count"] == 1

    def test_null_registry_hands_out_working_counters(self):
        counter = NULL_REGISTRY.counter("c", k="v")
        counter.inc()
        assert type(counter) is Counter
        assert counter.value == 1
        # but nothing is retained:
        assert NULL_REGISTRY.snapshot() == {"counters": {}, "histograms": {}}

    def test_null_registry_histogram_is_shared_noop(self):
        hist = NULL_REGISTRY.histogram("h")
        assert hist is NULL_HISTOGRAM
        hist.observe(123)  # must not raise, must not record
