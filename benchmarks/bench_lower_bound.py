"""E1 — Proposition 1: exhaustive verification of the t + 2 lower bound.

For each implemented ES algorithm and each small (n, t), enumerate **every**
serial synchronous run (all crash placements and all crash-round delivery
subsets) and verify:

* some run decides at round >= t + 2 (Proposition 1's statement), and
* for A_{t+2} specifically, *every* run decides at exactly t + 2 (the
  bound is achieved with equality, i.e. it is tight — Lemma 13).
"""

import pytest

from repro import ADiamondS, ATt2, ATt2Optimized, ChandraTouegES, HurfinRaynalES
from repro.analysis.tables import format_table
from repro.lowerbound.model_check import worst_case_serial

from conftest import emit

SYSTEMS = [(3, 1), (4, 1)]

ALGORITHMS = [
    ("att2", lambda: ATt2.factory(), lambda t: (t + 2, t + 2)),
    ("att2_optimized", lambda: ATt2Optimized.factory(),
     lambda t: (2, t + 2)),
    ("adiamond_s", lambda: ADiamondS.factory(), lambda t: (t + 2, t + 2)),
    ("hurfin_raynal", lambda: HurfinRaynalES, lambda t: (2, 2 * t + 2)),
    ("chandra_toueg", lambda: ChandraTouegES, lambda t: (3, 3 * t + 3)),
]


def exhaustive_rows(n, t):
    rows = []
    for name, make, bounds in ALGORITHMS:
        worst, worst_events, best, _ = worst_case_serial(
            make(), list(range(n)), t=t,
            crash_rounds_limit=t + 2, horizon=4 * t + 12,
        )
        expected_best, expected_worst = bounds(t)
        rows.append(
            (name, n, t, best, worst, expected_worst,
             len(worst_events))
        )
        assert worst >= t + 2, (name, n, t, worst)
        assert worst == expected_worst, (name, n, t, worst)
        assert best == expected_best, (name, n, t, best)
    return rows


@pytest.mark.parametrize("n,t", SYSTEMS)
def test_lower_bound_exhaustive(benchmark, n, t):
    rows = benchmark.pedantic(
        exhaustive_rows, args=(n, t), rounds=1, iterations=1
    )
    emit(
        format_table(
            ["algorithm", "n", "t", "best", "worst", "paper worst",
             "crashes in witness"],
            rows,
            title=(
                f"E1: exhaustive serial-run decision rounds (n={n}, t={t}) "
                f"— every ES algorithm needs >= t+2"
            ),
        )
    )
