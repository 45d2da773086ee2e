"""Shared helpers for the experiment benches.

Each bench file reproduces one experiment (E1–E11; ``python -m repro
experiments`` prints the table-shaped ones): it *asserts* the paper's
claim (shape, not absolute numbers) and prints the reproduced table —
run ``pytest benchmarks/ --benchmark-only -s`` to see the tables
alongside pytest-benchmark's timing output.
"""

from __future__ import annotations

import sys


def emit(table: str) -> None:
    """Print an experiment table (flushes so tables interleave sanely)."""
    print("\n" + table, file=sys.stderr, flush=True)
