"""Property: sharded streaming sweeps are equivalent to in-memory ones.

The distributed story in PR 8 rests on one invariant — *how* a sweep is
executed (one backend holding rows in memory, or N shards streaming
chunked JSONL to disk) must never change *what* it produces.  Each trial
here builds a randomized grid (including figures that intentionally
fail), runs it once in-memory on a single backend, then re-runs it
sharded with streamed rows, and asserts the two sweeps agree cell by
cell: statuses, verdicts, row payloads, and rendered CSV bytes.

Trials are driven by seeded stdlib ``random.Random`` generators, in the
same style as the other property suites: a failing trial prints its seed
so the exact case replays.
"""

import random

import pytest

from repro.runner import SerialBackend, make_job, run_jobs
from tests.runner.faulty import BOOM, STEADY, WIDE, registered

#: Trials per property.  Each failure message carries the trial seed.
TRIALS = 10

#: Figure pool for random grids; BOOM injects real failures.
FIGURE_POOL = ["test-steady", "test-wide", "test-boom"]


def trial_seeds(start):
    return [start + trial for trial in range(TRIALS)]


def random_jobs(rng):
    """A randomized mixed-outcome grid, as replayable pure data."""
    jobs = []
    for _ in range(rng.randrange(3, 9)):
        figure = rng.choice(FIGURE_POOL)
        params = {}
        if figure == "test-wide":
            params = {
                "rows": rng.randrange(5, 40),
                "width": rng.randrange(2, 6),
            }
        jobs.append(make_job(figure, seed=rng.randrange(4), params=params))
    # A grid may sample the same cell twice; keep one of each (duplicate
    # cells share a cache key and are legitimate no-ops, but they make
    # the outcome-by-cell comparison ambiguous).
    unique = {}
    for job in jobs:
        unique[(job.figure, job.seed, job.params)] = job
    return list(unique.values())


def cell(outcome):
    return (outcome.job.figure, outcome.job.seed, outcome.job.params)


def by_cell(result):
    return {cell(o): o for o in result.outcomes}


@pytest.mark.parametrize("seed", trial_seeds(7100))
def test_sharded_streaming_sweep_matches_in_memory(seed, tmp_path):
    rng = random.Random(seed)
    with registered(BOOM, STEADY, WIDE):
        jobs = random_jobs(rng)
        shards = rng.randrange(2, 5)
        baseline = run_jobs(jobs, workers=1, backend=SerialBackend())
        sharded = {}
        for i in range(shards):
            shard = jobs[i::shards]
            if not shard:
                continue
            part = run_jobs(
                shard, workers=1, backend=SerialBackend(),
                stream_rows=tmp_path / "rows", chunk_rows=7,
            )
            sharded.update(by_cell(part))

    expected = by_cell(baseline)
    assert set(sharded) == set(expected), f"trial seed {seed}"
    for key, left in expected.items():
        right = sharded[key]
        assert left.record.status == right.record.status, (
            f"trial seed {seed}: status diverged for {key}"
        )
        assert left.record.verdict == right.record.verdict, (
            f"trial seed {seed}: verdict diverged for {key}"
        )
        assert left.rows == list(right.rows), (
            f"trial seed {seed}: rows diverged for {key}"
        )
        if left.record.status == "ok":
            assert left.rows.to_csv() == right.rows.to_csv(), (
                f"trial seed {seed}: CSV bytes diverged for {key}"
            )
