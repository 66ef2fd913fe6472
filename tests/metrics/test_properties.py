"""Property-based tests for the metrics substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import (
    Cdf,
    bin_counts,
    jitter_report,
    parallel_availability,
    series_availability,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@given(st.lists(finite_floats, min_size=1, max_size=300))
def test_cdf_is_monotone_and_normalized(values):
    cdf = Cdf.from_samples(values)
    assert np.all(np.diff(cdf.ps) >= 0)
    assert cdf.ps[-1] == 1.0
    assert np.all(np.diff(cdf.xs) >= 0)


@given(st.lists(finite_floats, min_size=1, max_size=200), finite_floats)
def test_cdf_evaluate_in_unit_interval(values, probe):
    cdf = Cdf.from_samples(values)
    assert 0.0 <= cdf.evaluate(probe) <= 1.0


@given(
    st.lists(finite_floats, min_size=2, max_size=200),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_quantile_is_attained_sample(values, p):
    cdf = Cdf.from_samples(values)
    assert cdf.quantile(p) in set(np.asarray(values, dtype=float))


@given(
    st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=100),
    st.integers(1_000, 1_000_000),
)
def test_jitter_report_invariants(deviations, period):
    arrivals = [0]
    for deviation in deviations:
        arrivals.append(max(arrivals[-1] + 1, arrivals[-1] + period + deviation))
    report = jitter_report(arrivals, period)
    assert report.max_abs_jitter_ns >= report.mean_abs_jitter_ns >= 0
    assert report.peak_to_peak_ns >= 0
    assert report.sample_count == len(arrivals) - 1


@given(
    st.lists(st.integers(0, 10**6), min_size=1, max_size=300),
    st.integers(1, 10**5),
)
@settings(deadline=None)
def test_binning_conserves_in_range_events(timestamps, width):
    end = max(timestamps) + 1
    series = bin_counts(timestamps, bin_width_ns=width, start_ns=0, end_ns=end)
    assert int(series.counts.sum()) == len(timestamps)
    assert np.all(series.counts >= 0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
def test_availability_composition_bounds(availabilities):
    serial = series_availability(availabilities)
    redundant = parallel_availability(availabilities)
    epsilon = 1e-9
    assert 0.0 <= serial <= 1.0
    assert 0.0 <= redundant <= 1.0
    assert serial <= min(availabilities) + epsilon
    assert redundant >= max(availabilities) - epsilon
