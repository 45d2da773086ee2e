"""Tests for view-equality utilities."""

import pytest

from repro import ATt2, FloodSet, Schedule
from repro.lowerbound.indistinguishability import (
    decision_consistency,
    distinguishers,
)
from repro.sim.kernel import run_algorithm


def traces_differing_at_p2():
    """Two runs identical except whether p3's final message reaches p2.

    p3 holds the minimum proposal and crashes in round 1; in one run the
    value 0 survives at p2, in the other it dies with p3.
    """
    base = Schedule.synchronous(4, 1, 6, crashes={3: (1, [2])})
    other = Schedule.synchronous(4, 1, 6, crashes={3: (1, [])})
    proposals = [5, 6, 7, 0]
    return (
        run_algorithm(FloodSet, base, proposals),
        run_algorithm(FloodSet, other, proposals),
    )


class TestDistinguishers:
    def test_identical_runs_have_no_distinguishers(self):
        schedule = Schedule.failure_free(3, 1, 5)
        a = run_algorithm(FloodSet, schedule, [1, 2, 3])
        b = run_algorithm(FloodSet, schedule, [1, 2, 3])
        assert distinguishers(a, b, upto=5) == frozenset()

    def test_only_affected_receiver_distinguishes_at_first(self):
        a, b = traces_differing_at_p2()
        assert distinguishers(a, b, upto=1) == frozenset({2})

    def test_difference_propagates(self):
        a, b = traces_differing_at_p2()
        # p2's round-2 flood reveals the hidden 0 to everyone alive, and
        # indeed the two runs decide differently.
        later = distinguishers(a, b, upto=2)
        assert later >= frozenset({0, 1, 2})
        assert a.decided_values() == {0}
        assert b.decided_values() == {5}

    def test_views_equal_for(self):
        a, b = traces_differing_at_p2()
        assert not distinguishers(a, b, upto=1) & {0, 1}
        assert distinguishers(a, b, upto=1) & {0, 1, 2}

    def test_size_mismatch_rejected(self):
        a, _ = traces_differing_at_p2()
        c = run_algorithm(FloodSet, Schedule.failure_free(3, 1, 5),
                          [1, 2, 3])
        with pytest.raises(ValueError, match="different system sizes"):
            distinguishers(a, c, upto=2)


def first_divergence_round(trace_a, trace_b, pid, *, upto):
    """The first round at which *pid*'s views differ, or ``None``."""
    for k in range(1, upto + 1):
        if trace_a.view(pid, k) != trace_b.view(pid, k):
            return k
    return None


class TestFirstDivergence:
    def test_divergence_round(self):
        a, b = traces_differing_at_p2()
        assert first_divergence_round(a, b, 2, upto=5) == 1
        assert first_divergence_round(a, b, 0, upto=5) == 2
        assert first_divergence_round(a, b, 0, upto=1) is None


class TestDecisionConsistency:
    def test_no_issues_for_deterministic_automata(self):
        a, b = traces_differing_at_p2()
        assert decision_consistency(a, b, upto=1) == []

    def test_consistency_across_att2_runs(self):
        schedule = Schedule.failure_free(3, 1, 8)
        a = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        b = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        assert decision_consistency(a, b, upto=8) == []
