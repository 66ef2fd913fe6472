"""Content-addressed on-disk cache for figure results.

A cache entry is keyed on the SHA-256 of the canonical JSON encoding of
``{figure, params, seed, version}`` — so a change to the figure's
parameters, the seed, or the package version produces a different key and
a recomputation, while re-running an identical sweep hits the cache and
skips the simulation entirely.

Layout (two-level fan-out to keep directories small)::

    <cache-dir>/
        ab/
            ab3f…9c.json     # {"key": …, "figure": …, "seed": …,
                             #  "params": …, "version": …, "rows": […]}

Entries are written atomically (temp file + ``os.replace``) so a crashed
or parallel writer never leaves a truncated entry behind; readers treat
undecodable entries as misses.

**Streamed entries** (PR-8): a sweep running with row streaming does not
inline ``rows`` in the entry; instead the entry carries ``row_chunks``
(paths of the chunked JSONL files the worker wrote under
:meth:`ResultCache.rows_dir`, see :mod:`repro.runner.rowstream`) plus a
``rows_count``.  :meth:`ResultCache.get` then returns a
:class:`~repro.runner.rowstream.LazyRows` over those chunks — a hit never
materializes the rows in the supervising process.  A streamed entry whose
chunk files have gone missing is a miss, never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

from .. import __version__
from ..figures import Rows
from .rowstream import LazyRows

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = Path(".repro-cache")


def cache_key(
    figure: str,
    seed: int,
    params: Mapping[str, Any],
    version: str = __version__,
) -> str:
    """The content address of one (figure, seed, params, version) cell."""
    payload = json.dumps(
        {
            "figure": figure,
            "params": {k: _canonical(v) for k, v in sorted(params.items())},
            "seed": seed,
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> Any:
    """JSON-stable form for param values (tuples become lists)."""
    if isinstance(value, tuple):
        return [_canonical(v) for v in value]
    return value


class ResultCache:
    """Stores figure rows under their content address."""

    def __init__(self, root: Path | str = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def rows_dir(self) -> Path:
        """Root of the streamed row-chunk store co-located with the cache.

        Workers write chunked JSONL row files here (see
        :mod:`repro.runner.rowstream`); streamed cache entries reference
        them instead of inlining rows.
        """
        return self.root / "rows"

    def get(self, key: str) -> "Rows | LazyRows | None":
        """The cached rows for ``key``, or ``None`` on a miss.

        In-memory entries come back as eager :class:`Rows`; streamed
        entries as a :class:`LazyRows` over their chunk files.
        """
        path = self._entry_path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            # Valid JSON that is not an entry object (``[]``, ``null``)
            # is a miss like any other undecodable entry.
            return None
        chunks = payload.get("row_chunks")
        if chunks is not None:
            count = payload.get("rows_count")
            if (
                not isinstance(chunks, list)
                or not all(isinstance(c, str) for c in chunks)
                or not isinstance(count, int)
            ):
                return None
            paths = [Path(c) for c in chunks]
            if not all(p.is_file() for p in paths):
                # The entry survived but its chunk files did not (pruned,
                # partial rsync): recompute rather than crash mid-read.
                return None
            return LazyRows(paths, count)
        rows = payload.get("rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            # A decodable but malformed entry (hand-edited, or a schema
            # from some future version) is a miss, never a crash.
            return None
        return Rows(rows)

    def put(
        self,
        key: str,
        rows: Rows,
        *,
        figure: str,
        seed: int,
        params: Mapping[str, Any],
    ) -> Path:
        """Atomically write ``rows`` under ``key``; returns the entry path."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "key": key,
                "figure": figure,
                "seed": seed,
                "params": {k: _canonical(v) for k, v in sorted(params.items())},
                "version": __version__,
                "rows": list(rows),
            }
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload)
        os.replace(tmp, path)
        return path

    def put_streamed(
        self,
        key: str,
        chunks: Iterable[Path | str],
        count: int,
        *,
        figure: str,
        seed: int,
        params: Mapping[str, Any],
    ) -> Path:
        """Atomically record a streamed entry referencing row-chunk files.

        The chunks themselves were already written (atomically) by the
        worker; this writes only the small entry document, so a sweep's
        cache writes stay O(1) in row count.
        """
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "key": key,
                "figure": figure,
                "seed": seed,
                "params": {k: _canonical(v) for k, v in sorted(params.items())},
                "version": __version__,
                "row_chunks": [str(chunk) for chunk in chunks],
                "rows_count": int(count),
            }
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload)
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
