"""Tests for the failure-free optimization (Figure 4)."""

import pytest

from repro import ATt2Optimized, Schedule
from repro.analysis.metrics import check_consensus
from repro.lowerbound.adversary import AdversaryBudget, run_leaves
from repro.model.schedule import ScheduleBuilder
from repro.workloads import serial_cascade
from tests.conftest import run_and_check


class TestFailureFreeFastPath:
    @pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3), (9, 4)])
    def test_failure_free_synchronous_decides_at_round_2(self, n, t):
        schedule = Schedule.failure_free(n, t, t + 6)
        trace = run_and_check(
            ATt2Optimized.factory(), schedule, list(range(n))
        )
        assert trace.global_decision_round() == 2
        assert trace.decided_values() == {0}

    def test_decision_is_global_minimum(self):
        schedule = Schedule.failure_free(5, 2, 10)
        trace = run_and_check(
            ATt2Optimized.factory(), schedule, [9, 4, 7, 2, 8]
        )
        assert trace.decided_values() == {2}
        assert trace.global_decision_round() == 2

    def test_two_rounds_matches_well_behaved_lower_bound(self):
        # Keidar-Rajsbaum: two rounds is optimal for well-behaved runs;
        # round 1 alone can never suffice because round-2 messages carry
        # the evidence that round 1 was suspicion-free.
        schedule = Schedule.failure_free(5, 2, 10)
        trace = run_and_check(
            ATt2Optimized.factory(), schedule, [3, 1, 4, 1, 5]
        )
        assert trace.first_decision_round() == 2


class TestWithFailures:
    def test_crash_disables_fast_path(self):
        # A visible round-1 crash means no process sees n clean messages.
        schedule = serial_cascade(5, 2, 10, crashers=(4,), start_round=1)
        trace = run_and_check(
            ATt2Optimized.factory(), schedule, [3, 1, 4, 1, 5]
        )
        assert trace.global_decision_round() == 4  # back to t + 2

    def test_partial_visibility_keeps_agreement(self):
        # p4 crashes in round 2 delivering only to p0: p0 sees n clean
        # round-2 messages and decides at round 2; the others catch up via
        # DECIDE and the normal phases, all on the same value.
        builder = ScheduleBuilder(5, 2, 12)
        builder.crash(4, 2, delivered_to=(0,))
        trace = run_and_check(
            ATt2Optimized.factory(), builder.build(), [3, 1, 4, 1, 5]
        )
        assert trace.decision_round(0) == 2
        assert trace.decided_values() == {1}

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1)])
    def test_all_serial_runs_still_safe_and_fast(self, n, t):
        # The optimization must preserve the t + 2 fast decision bound.
        proposals = list(range(n))
        budget = AdversaryBudget.serial(t, t + 2)
        for events, trace in run_leaves(
            ATt2Optimized.factory(), proposals,
            t=t, budget=budget, horizon=t + 8,
        ):
            problems = check_consensus(trace)
            assert not problems, (events, problems)
            assert trace.global_decision_round() <= t + 2, (
                events, trace.describe(),
            )

    def test_suspicion_without_failure_routes_to_vc(self):
        # Round-1 false suspicion visible to nobody's fast path: every
        # round-2 message that *is* received carries Halt = ∅ at p2 only.
        builder = ScheduleBuilder(3, 1, 16)
        builder.delay(0, 1, 1, 3)  # p1 falsely suspects p0 in round 1
        trace = run_and_check(
            ATt2Optimized.factory(), builder.build(), [0, 1, 1]
        )
        assert len(trace.decided_values()) == 1
        assert not check_consensus(trace)
