"""The trace-mode invariant at sweep scale.

Sweeps run every case lean, so a sweep record must not depend on the
per-round records a full trace adds.  Every case of the ``--profile
large`` grids (n = 25 and n = 50) and of an n = 9, t = 4 grid (25 cases
per family, seed 3) runs in both modes here: the full trace with its
``rounds`` dropped must equal the lean trace, and the records built
from the two must be equal.  The grids run their own algorithms plus
``floodset_ws``, so every kind of round the run plane claims — Phase 1
(att2, att2_optimized, adiamond_s, floodset_ws), round t + 2 and the
Chandra–Toueg rounds (the baseline's, and C's of the A_{t+2} family) —
is stored in full mode too.  At n = 9 nobody decides in round t + 2 on
most ES schedules, so C's rounds are claimed there.
"""

from dataclasses import replace

import pytest

from repro.algorithms.registry import get_factory
from repro.analysis.sweep import case_record
from repro.engine import default_sweep_grid, expand_grid, profile_grids
from repro.sim.kernel import run_algorithm

BASE_GRIDS = [
    *profile_grids("large"),
    ("n9", default_sweep_grid(9, 4, seed=3, cases_per_family=25)),
]
GRIDS = [
    *BASE_GRIDS,
    *(
        (f"{label}-floodset_ws", replace(grid, algorithms=("floodset_ws",)))
        for label, grid in BASE_GRIDS
    ),
]


@pytest.mark.parametrize(
    "grid", [grid for _label, grid in GRIDS],
    ids=[label for label, _grid in GRIDS],
)
def test_full_and_lean_traces_agree_on_profile_large(grid):
    for case in expand_grid(grid):
        factory = get_factory(case.algorithm)
        proposals = list(case.proposals)
        full = run_algorithm(factory, case.schedule, proposals, trace="full")
        lean = run_algorithm(factory, case.schedule, proposals, trace="lean")
        label = f"{case.algorithm} on {case.workload}"
        assert full.rounds is not None and lean.rounds is None, label
        assert replace(full, rounds=None) == lean, label
        assert case_record(case.algorithm, case.workload, full) == (
            case_record(case.algorithm, case.workload, lean)
        ), label
