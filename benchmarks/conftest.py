"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's figures (or a stated
numeric claim), prints the same rows/series the paper reports, and asserts
the figure's qualitative *shape* so a regression fails the suite.
"""

from __future__ import annotations


def print_table(title: str, header: list[str], rows: list[list[str]]) -> None:
    """Render a small aligned table to stdout (shown with pytest -s)."""
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
