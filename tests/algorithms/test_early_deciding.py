"""Tests for early-deciding SCS consensus: min(f + 2, t + 1) rounds."""

import pytest

from repro import EarlyDecidingSCS, Schedule
from repro.analysis.metrics import check_consensus
from repro.lowerbound.adversary import AdversaryBudget, run_leaves
from repro.sim.kernel import run_algorithm
from repro.sim.random_schedules import random_scs_schedule, random_proposals
from repro.workloads import serial_cascade, value_hiding_chain
from tests.conftest import run_and_check


class TestEarlyDecision:
    def test_failure_free_decides_at_round_two(self):
        # f = 0: decision at round f + 2 = 2 (the uniform-consensus floor).
        schedule = Schedule.failure_free(5, 3, 8)
        trace = run_and_check(EarlyDecidingSCS, schedule, [3, 1, 4, 1, 5])
        assert trace.global_decision_round() == 2
        assert trace.decided_values() == {1}

    @pytest.mark.parametrize("f", [0, 1, 2, 3])
    def test_f_crashes_decide_by_f_plus_2(self, f):
        n, t = 9, 4
        schedule = serial_cascade(
            n, t, t + 4, crashers=tuple(range(n - 1, n - 1 - f, -1))
        )
        trace = run_and_check(EarlyDecidingSCS, schedule, list(range(n)))
        assert trace.global_decision_round() <= min(f + 2, t + 1)

    def test_never_exceeds_t_plus_1(self):
        n, t = 5, 2
        schedule = value_hiding_chain(n, t, t + 4)
        trace = run_and_check(EarlyDecidingSCS, schedule, list(range(n)))
        assert trace.global_decision_round() <= t + 1


class TestExhaustiveUniformAgreement:
    """Uniform agreement is where naive early decision breaks; enumerate."""

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (4, 2)])
    def test_all_serial_runs_safe(self, n, t):
        proposals = list(range(n))
        budget = AdversaryBudget.serial(t, t + 1)
        for events, trace in run_leaves(
            EarlyDecidingSCS, proposals, t=t, budget=budget, horizon=t + 4
        ):
            problems = check_consensus(trace)
            assert not problems, (events, problems)

    def test_random_scs_runs_safe(self):
        for seed in range(60):
            schedule = random_scs_schedule(5, 2, seed, horizon=9)
            trace = run_algorithm(
                EarlyDecidingSCS, schedule, random_proposals(5, seed)
            )
            problems = check_consensus(trace)
            assert not problems, (seed, problems)
