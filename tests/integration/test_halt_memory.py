"""Memory guard: A_{t+2}'s Halt rows never enter the intern table.

Halt and the A_◇S detector rows live as int masks, so a run builds no
canonical frozenset per grown row.  When they were interned, every row
that grew stayed in the process-global table (``sim.bitset._SET_CACHE``)
for the life of a pool worker: 4,425 sets after the n = 100 ES group.
Counting table entries is deterministic, so this guard needs no RSS
measurement.
"""

from repro.engine import SerialExecutor, run_cases
from repro.engine.grids import expand_grid, profile_grids
from repro.sim import bitset

#: The three A_{t+2} variants whose Phase 1 floods Halt.
ALGORITHMS = ("att2", "att2_optimized", "adiamond_s")


def test_xlarge_es_runs_leave_the_intern_table_flat(monkeypatch):
    _label, grid = profile_grids("xlarge", seed=3)[0]
    cases = [
        case for case in expand_grid(grid)
        if case.workload.startswith("es[") and case.algorithm in ALGORITHMS
    ]
    assert sorted(case.algorithm for case in cases) == sorted(ALGORITHMS)
    # A fresh table, so earlier tests can neither fill it to its cap
    # (which would hide growth) nor pre-warm the rows this run needs.
    table = {0: frozenset()}
    monkeypatch.setattr(bitset, "_SET_CACHE", table)
    records = run_cases(cases, executor=SerialExecutor())
    assert len(records) == len(ALGORITHMS)
    assert len(table) - 1 < 100, len(table)
