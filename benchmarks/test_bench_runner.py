"""E-runner — the parallel experiment engine.

Two claims:

1. **Parallel speedup** — ``repro all --jobs 4`` style sweeps complete
   >= 2x faster than ``--jobs 1`` on a multi-core box (skipped when fewer
   than 4 CPUs are available, since the pool then cannot demonstrate it).
2. **Warm cache** — rerunning an identical sweep against a populated
   result cache performs *zero* figure recomputation and is an order of
   magnitude faster than the cold run.
"""

import os
import time

import pytest

from conftest import print_table

from repro.runner import ResultCache, expand_grid, run_jobs

#: A sweep sized to dominate pool startup (~4 s serial on one core).
SWEEP_FIGS = ["fig1", "fig4-delay", "fig4-jitter", "fig5"]
SWEEP_SEEDS = [0, 1]
SWEEP_GRID = {"cycles": [200]}


def _sweep(workers, cache=None):
    jobs = expand_grid(SWEEP_FIGS, seeds=SWEEP_SEEDS, grid=SWEEP_GRID)
    return run_jobs(jobs, workers=workers, cache=cache)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 CPUs",
)
def test_bench_parallel_speedup(benchmark):
    t0 = time.perf_counter()
    serial = _sweep(workers=1)
    serial_s = time.perf_counter() - t0

    result = benchmark.pedantic(
        lambda: _sweep(workers=4), rounds=1, iterations=1
    )
    parallel_s = result.manifest.wall_time_s

    print_table(
        "Runner — serial vs parallel sweep",
        ["workers", "jobs", "wall s"],
        [
            ["1", str(len(serial.outcomes)), f"{serial_s:.2f}"],
            ["4", str(len(result.outcomes)), f"{parallel_s:.2f}"],
        ],
    )
    # Identical rows regardless of worker count.
    for a, b in zip(serial.outcomes, result.outcomes):
        assert a.rows.to_csv() == b.rows.to_csv()
    assert serial_s / parallel_s >= 2.0


def test_bench_warm_cache(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "cache")

    t0 = time.perf_counter()
    cold = _sweep(workers=1, cache=cache)
    cold_s = time.perf_counter() - t0

    warm = benchmark.pedantic(
        lambda: _sweep(workers=1, cache=cache), rounds=1, iterations=1
    )
    warm_s = time.perf_counter() - t0 - cold_s

    print_table(
        "Runner — cold vs warm cache sweep",
        ["run", "hits", "misses", "wall s"],
        [
            ["cold", str(cold.manifest.cache_hits),
             str(cold.manifest.cache_misses), f"{cold_s:.2f}"],
            ["warm", str(warm.manifest.cache_hits),
             str(warm.manifest.cache_misses), f"{warm_s:.2f}"],
        ],
    )
    # The warm run recomputed nothing…
    assert cold.manifest.cache_misses == len(cold.outcomes)
    assert warm.manifest.cache_hits == len(warm.outcomes)
    assert warm.manifest.cache_misses == 0
    # …returned identical data…
    for a, b in zip(cold.outcomes, warm.outcomes):
        assert a.rows.to_csv() == b.rows.to_csv()
    # …and was dramatically faster than simulating.
    assert warm.manifest.wall_time_s < cold_s / 5
