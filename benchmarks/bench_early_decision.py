"""E9 — Section 6: early decision in runs with few failures.

The corollary of Proposition 1: for every f <= t, some synchronous run of
ES with at most f crashes decides at round >= f + 2.  We verify it
exhaustively on the implemented algorithms (restricting the serial
enumeration to <= f crashes), and contrast with the early-deciding SCS
algorithm that achieves min(f + 2, t + 1) — showing early decision is
where the two worlds meet (for 0 < f < t - 1, both pay f + 2).
"""

import pytest

from repro import ATt2, EarlyDecidingSCS
from repro.analysis.tables import format_table
from repro.lowerbound.adversary import AdversaryBudget, run_leaves

from conftest import emit


def worst_by_crash_count(factory, n, t):
    """Worst global decision round per crash count over every serial run."""
    worst = [0] * (t + 1)
    for events, trace in run_leaves(
        factory, list(range(n)), t=t,
        budget=AdversaryBudget.serial(t, t + 2), horizon=t + 9,
    ):
        f = len(events)
        worst[f] = max(worst[f], trace.global_decision_round())
    return worst


def early_decision_census(n, t):
    """Worst global decision round among serial runs with exactly f crashes."""
    worst_es = worst_by_crash_count(ATt2.factory(), n, t)
    worst_scs = worst_by_crash_count(EarlyDecidingSCS, n, t)
    return [
        (f, worst_es[f], f + 2, worst_scs[f], min(f + 2, t + 1))
        for f in range(t + 1)
    ]


@pytest.mark.parametrize("n,t", [(3, 1), (4, 1)])
def test_early_decision_bounds(benchmark, n, t):
    rows = benchmark.pedantic(
        early_decision_census, args=(n, t), rounds=1, iterations=1
    )
    emit(
        format_table(
            ["f", "A_t+2 worst", "ES bound f+2", "early-SCS worst",
             "SCS bound min(f+2,t+1)"],
            rows,
            title=f"E9: early decision by crash count (n={n}, t={t})",
        )
    )
    for f, worst_es, es_bound, worst_scs, scs_bound in rows:
        # The indulgent algorithm respects (and there exists a run
        # attaining at least) the f + 2 corollary...
        assert worst_es >= es_bound or worst_es == t + 2, (f, worst_es)
        # ... and stays within its own fast-decision ceiling.
        assert worst_es <= t + 2
        # The SCS early decider matches min(f+2, t+1) as an upper bound.
        assert worst_scs <= scs_bound, (f, worst_scs)
