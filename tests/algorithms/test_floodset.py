"""Tests for FloodSet: t + 1 decision in SCS, exhaustive safety."""

import pytest

from repro import FloodSet, Schedule
from repro.analysis.metrics import check_consensus
from repro.lowerbound.adversary import AdversaryBudget, run_leaves
from repro.lowerbound.model_check import worst_case_serial
from repro.sim.kernel import run_algorithm
from repro.sim.random_schedules import random_scs_schedule
from repro.workloads import value_hiding_chain
from tests.conftest import run_and_check


class TestHappyPath:
    def test_failure_free_decides_min_at_t_plus_1(self):
        for t in (1, 2, 3):
            n = 2 * t + 1
            schedule = Schedule.failure_free(n, t, t + 3)
            trace = run_and_check(FloodSet, schedule, list(range(n, 0, -1)))
            assert trace.global_decision_round() == t + 1
            assert trace.decided_values() == {1}

    def test_every_run_decides_exactly_t_plus_1(self):
        # FloodSet never decides early, even failure-free.
        worst, _, best, _ = worst_case_serial(
            FloodSet, [0, 1, 2, 3], t=1, crash_rounds_limit=2, horizon=6
        )
        assert worst == best == 2


class TestValueHiding:
    def test_hidden_minimum_survives_the_chain(self):
        n, t = 5, 3
        schedule = value_hiding_chain(n, t, t + 3)
        trace = run_and_check(FloodSet, schedule, list(range(n)))
        # The chain hands value 0 along crashing processes; the final
        # carrier p3 survives, so everyone alive decides 0.
        assert trace.decided_values() == {0}

    def test_longer_chain_still_delivers_minimum(self):
        # A deeper chain (t = 4): the hidden 0 passes through four
        # crashing carriers before surfacing at the surviving p4.
        n, t = 6, 4
        schedule = value_hiding_chain(n, t, t + 3)
        trace = run_and_check(FloodSet, schedule, list(range(n)))
        assert trace.decided_values() == {0}

    def test_chain_cut_by_final_crash_loses_minimum(self):
        # Cut the chain: the last carrier crashes before telling anyone,
        # so the minimum 0 vanishes and survivors decide 1.
        from repro.model.schedule import ScheduleBuilder

        n, t = 5, 3
        builder = ScheduleBuilder(n, t, t + 3)
        builder.crash(0, 1, delivered_to=(1,))
        builder.crash(1, 2, delivered_to=(2,))
        builder.crash(2, 3, delivered_to=())
        trace = run_and_check(
            FloodSet, builder.build(), list(range(n))
        )
        # 0 died inside the chain; the smallest value that ever reached a
        # survivor is p1's own proposal 1 (flooded in round 1).
        assert trace.decided_values() == {1}


class TestExhaustiveSafety:
    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (4, 2)])
    def test_all_serial_runs_safe(self, n, t):
        proposals = list(range(n))
        budget = AdversaryBudget.serial(t, t + 1)
        for events, trace in run_leaves(
            FloodSet, proposals, t=t, budget=budget, horizon=t + 3
        ):
            problems = check_consensus(trace)
            assert not problems, (events, problems)
            assert trace.global_decision_round() == t + 1

    def test_random_scs_runs_safe(self):
        for seed in range(40):
            schedule = random_scs_schedule(5, 2, seed, horizon=8)
            trace = run_algorithm(FloodSet, schedule, [4, 2, 5, 1, 3])
            problems = check_consensus(trace)
            assert not problems, (seed, problems)
