"""Tests for consensus property checking and summaries."""

from dataclasses import replace

import pytest

from repro import ATt2, FloodSetWS, Schedule
from repro.analysis.metrics import (
    assert_consensus,
    check_agreement,
    check_consensus,
    check_termination,
    check_validity,
    summarize,
)
from repro.errors import ConsensusViolation
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm


def good_trace():
    schedule = Schedule.failure_free(3, 1, 8)
    return run_algorithm(ATt2.factory(), schedule, [4, 2, 9])


def disagreeing_trace():
    """FloodSetWS under false suspicion (the paper's failure mode)."""
    builder = ScheduleBuilder(3, 1, 6)
    for k in (1, 2):
        builder.delay(0, 1, k, 3)
        builder.delay(0, 2, k, 3)
    return run_algorithm(FloodSetWS, builder.build(), [0, 1, 1])


class TestChecks:
    def test_clean_run_has_no_violations(self):
        assert check_consensus(good_trace()) == []

    def test_agreement_violation_reported(self):
        problems = check_agreement(disagreeing_trace())
        assert len(problems) == 1
        assert "2 distinct decisions" in problems[0]

    def test_validity_violation_reported(self):
        trace = good_trace()
        # Forge a decision on a non-proposed value.
        forged = replace(trace, decisions={0: (999, 3)})
        problems = check_validity(forged)
        assert "which no process proposed" in problems[0]

    def test_termination_violation_reported(self):
        # Horizon 1: nobody decides.
        schedule = Schedule.failure_free(3, 1, 1)
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        problems = check_termination(trace)
        assert len(problems) == 3

    def test_termination_ignores_faulty(self):
        schedule = Schedule.synchronous(3, 1, 8, crashes={2: (1, [])})
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        assert check_termination(trace) == []

    def test_assert_consensus_raises(self):
        with pytest.raises(ConsensusViolation, match="agreement"):
            assert_consensus(disagreeing_trace())

    def test_assert_consensus_passes_through(self):
        trace = good_trace()
        assert assert_consensus(trace) is trace


class TestSummary:
    def test_summary_fields(self):
        summary = summarize(good_trace())
        assert summary.n == 3
        assert summary.t == 1
        assert summary.crashes == 0
        assert summary.sync_from == 1
        assert summary.global_round == 3
        assert summary.first_round == 3
        assert summary.deciders == 3
        assert summary.values == (2,)
        assert summary.decided_everywhere

    def test_summary_of_undecided_run(self):
        schedule = Schedule.failure_free(3, 1, 1)
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        summary = summarize(trace)
        assert summary.global_round is None
        assert not summary.decided_everywhere
