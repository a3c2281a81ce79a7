"""Shared helpers for the benchmark suite.

Every benchmark regenerates one experiment from DESIGN.md §5.  Tables are
printed to the (captured) stdout *and* persisted under
``benchmarks/results/`` so a plain ``pytest benchmarks/ --benchmark-only``
run leaves the regenerated tables on disk; EXPERIMENTS.md records them.
A ``--quick`` smoke run prints its tables but persists none, so the
committed tables always come from full runs.
"""

from __future__ import annotations

import pathlib
import re

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _slug(title: str) -> str:
    head = title.split("—")[0].strip().lower()
    return re.sub(r"[^a-z0-9]+", "_", head).strip("_") or "table"


def print_table(
    title: str, headers: list[str], rows: list[list], persist: bool = True
) -> None:
    """Print an aligned results table and, when ``persist``, write it to
    benchmarks/results/."""
    widths = [len(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines = [f"### {title}", header_line, "-" * len(header_line)]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in text_rows]
    text = "\n".join(lines)
    print("\n" + text)
    if not persist:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{_slug(title)}.txt").write_text(text + "\n")
