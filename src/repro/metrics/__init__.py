"""Measurement substrate: CDFs, jitter, availability, binned counts.

These are the metrics the paper says industrial evaluations must report:
worst-case latency/jitter, consecutive jitter events, watchdog expirations,
availability in nines, and packets-per-bin time series.
"""

from .availability import (
    OutageLog,
    SECONDS_PER_YEAR,
    availability_from_downtime,
    availability_from_mtbf_mttr,
    availability_to_nines,
    downtime_per_year_s,
    nines_to_availability,
    parallel_availability,
    series_availability,
)
from .binning import BinnedSeries, bin_counts
from .cdf import Cdf, dominance_fraction, dominates, median_shift
from .jitter import (
    ConsecutiveJitterRun,
    JitterReport,
    consecutive_jitter_runs,
    interarrival_times,
    jitter_report,
    longest_consecutive_jitter,
    period_jitter,
    watchdog_expirations,
)

__all__ = [
    "BinnedSeries",
    "Cdf",
    "ConsecutiveJitterRun",
    "JitterReport",
    "OutageLog",
    "SECONDS_PER_YEAR",
    "availability_from_downtime",
    "availability_from_mtbf_mttr",
    "availability_to_nines",
    "bin_counts",
    "consecutive_jitter_runs",
    "dominance_fraction",
    "dominates",
    "downtime_per_year_s",
    "interarrival_times",
    "jitter_report",
    "longest_consecutive_jitter",
    "median_shift",
    "nines_to_availability",
    "parallel_availability",
    "period_jitter",
    "series_availability",
    "watchdog_expirations",
]
