"""Helpers for tests over ``sweep.events.jsonl`` streams."""

import json
from pathlib import Path

from repro.obs.sweeptrace import SWEEPTRACE_SCHEMA, load_events

#: Top-level event fields that vary between replays (wall-clock stamps,
#: measured durations, process ids, timing-laden error text).  Everything
#: else is replay-stable; see :func:`canonical_lines`.
VOLATILE_KEYS = frozenset(
    {"ts", "dur_s", "wall_s", "delay_s", "pid", "error"}
)


def canonical_lines(path):
    """Events re-serialized without the volatile timing fields.

    Two replays of the same ``(grid, seed)`` sweep compare equal on
    these lines — the byte-stability contract of the schema.
    """
    out = []
    for event in load_events(path):
        stable = {k: v for k, v in event.items() if k not in VOLATILE_KEYS}
        out.append(json.dumps(stable, sort_keys=True, separators=(",", ":")))
    return out


def ev(kind, ts=0.0, **fields):
    """One event dict, as a parsed ``sweep.events.jsonl`` line."""
    return {"ev": kind, "ts": ts, **fields}


def start(total, ts=0.0):
    return ev("sweep_start", ts, schema=SWEEPTRACE_SCHEMA, trace="t",
              total=total)


def computed(job, label, wall_s=0.5, ts=0.0, outcome="ok", error=None):
    """A job submitted, started and ended in one final attempt."""
    end = dict(outcome=outcome, wall_s=wall_s, final=True)
    if error is not None:
        end["error"] = error
    return [
        ev("submitted", ts, job=job, label=label, figure=label.split()[0]),
        ev("attempt_start", ts, job=job, attempt=1),
        ev("attempt_end", ts + wall_s, job=job, attempt=1, **end),
    ]


def write_events(path, events, tail=""):
    """Write ``events`` as JSON lines, then the raw text ``tail``."""
    Path(path).write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events) + tail
    )
    return Path(path)
