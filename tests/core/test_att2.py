"""Tests for A_{t+2} (Figure 2): fast decision, phases, fallback."""

import pytest

from repro import ATt2, ChandraTouegES, HurfinRaynalES, Schedule
from repro.algorithms.base import make_automata
from repro.analysis.metrics import check_consensus
from repro.core.att2 import NEWESTIMATE
from repro.lowerbound.adversary import AdversaryBudget, run_leaves
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import execute, run_algorithm
from repro.types import is_bottom
from repro.workloads import block_crashes, rotating_delays, serial_cascade
from tests.conftest import run_and_check


class TestConstruction:
    def test_requires_indulgent_resilience(self):
        with pytest.raises(ValueError, match="t < n/2"):
            ATt2(0, 4, 2, 1)
        with pytest.raises(ValueError, match="t = 0"):
            ATt2(0, 4, 0, 1)

    def test_unsafe_escape_hatch(self):
        automaton = ATt2(0, 4, 2, 1, allow_unsafe_resilience=True)
        assert automaton.t == 2


class TestFastDecision:
    """Lemma 13: every synchronous run decides by round t + 2."""

    @pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3), (9, 4)])
    def test_failure_free_decides_at_exactly_t_plus_2(self, n, t):
        schedule = Schedule.failure_free(n, t, t + 5)
        trace = run_and_check(ATt2.factory(), schedule, list(range(n)))
        assert trace.global_decision_round() == t + 2
        assert trace.first_decision_round() == t + 2
        assert trace.decided_values() == {0}

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1)])
    def test_every_serial_run_decides_at_t_plus_2(self, n, t):
        proposals = list(range(n))
        budget = AdversaryBudget.serial(t, t + 2)
        for events, trace in run_leaves(
            ATt2.factory(), proposals, t=t, budget=budget, horizon=t + 8
        ):
            problems = check_consensus(trace)
            assert not problems, (events, problems)
            assert trace.global_decision_round() == t + 2, (
                events,
                trace.describe(),
            )

    def test_sampled_serial_runs_decide_at_t_plus_2(self):
        # (n, t) = (5, 2) is too big for exhaustive enumeration in a unit
        # test; sample serial schedules instead.
        from repro.sim.random_schedules import random_serial_schedule

        for seed in range(40):
            schedule = random_serial_schedule(5, 2, seed, horizon=10)
            trace = run_and_check(
                ATt2.factory(), schedule, [3, 1, 4, 1, 5]
            )
            assert trace.global_decision_round() == 4, (
                seed,
                trace.describe(),
            )

    def test_non_serial_synchronous_run_decides_at_t_plus_2(self):
        # Two crashes in the same round: synchronous but not serial.
        schedule = block_crashes(5, 2, 10, round_=1)
        trace = run_and_check(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        assert trace.global_decision_round() == 4

    def test_cascade_decides_at_t_plus_2(self):
        schedule = serial_cascade(7, 3, 12)
        trace = run_and_check(ATt2.factory(), schedule, list(range(7)))
        assert trace.global_decision_round() == 5


class TestPhaseTwo:
    def test_new_estimate_bottom_when_halt_exceeds_t(self):
        # p0 is falsely suspected by everyone for two rounds.
        builder = ScheduleBuilder(3, 1, 16)
        for k in (1, 2):
            builder.delay(0, 1, k, 3)
            builder.delay(0, 2, k, 3)
        automata = make_automata(ATt2.factory(), 3, 1, [0, 1, 1])
        execute(automata, builder.build())
        assert is_bottom(automata[0].new_estimate)
        assert not is_bottom(automata[1].new_estimate)

    def test_all_bottom_falls_back_to_own_proposal(self):
        # If every new estimate is ⊥, vc keeps the proposal (Figure 2).
        builder = ScheduleBuilder(3, 1, 20)
        # Round 1: everyone suspects someone, symmetric triangle:
        # 0 misses 1, 1 misses 2, 2 misses 0; round 2 the other way.
        builder.delay(1, 0, 1, 3)
        builder.delay(2, 1, 1, 3)
        builder.delay(0, 2, 1, 3)
        builder.delay(2, 0, 2, 3)
        builder.delay(0, 1, 2, 3)
        builder.delay(1, 2, 2, 3)
        automata = make_automata(ATt2.factory(), 3, 1, [4, 5, 6])
        trace = execute(automata, builder.build())
        assert all(is_bottom(a.new_estimate) for a in automata)
        assert not check_consensus(trace)

    def test_mixed_bottom_adopts_received_estimate(self):
        builder = ScheduleBuilder(3, 1, 16)
        for k in (1, 2):
            builder.delay(0, 1, k, 3)
            builder.delay(0, 2, k, 3)
        automata = make_automata(ATt2.factory(), 3, 1, [0, 1, 2])
        trace = execute(automata, builder.build())
        # p0 proposed ⊥; p1/p2 proposed 1. Nobody decides at t+2 (p0's ⊥
        # reaches them), and the underlying consensus runs on vc values
        # drawn from the non-⊥ new estimates.
        assert automata[1].vc == 1
        assert automata[2].vc == 1
        assert trace.decided_values() == {1}


class TestUnderlyingConsensus:
    def test_decides_via_chandra_toueg_fallback(self):
        schedule = rotating_delays(5, 2, 24, async_rounds=4)
        trace = run_and_check(
            ATt2.factory(ChandraTouegES), schedule, [3, 1, 4, 1, 5]
        )
        assert len(trace.decided_values()) == 1

    def test_decides_via_hurfin_raynal_fallback(self):
        schedule = rotating_delays(5, 2, 24, async_rounds=4)
        trace = run_and_check(
            ATt2.factory(HurfinRaynalES), schedule, [3, 1, 4, 1, 5]
        )
        assert len(trace.decided_values()) == 1

    def test_fast_path_is_independent_of_underlying(self):
        # Fast decision holds regardless of C (the paper stresses this).
        for underlying in (ChandraTouegES, HurfinRaynalES):
            schedule = Schedule.failure_free(5, 2, 10)
            trace = run_and_check(
                ATt2.factory(underlying), schedule, [3, 1, 4, 1, 5]
            )
            assert trace.global_decision_round() == 4

    def test_decide_messages_reach_late_deciders(self):
        # p0 is falsely suspected in Phase 1, so its new estimate is ⊥.
        # Delaying p0's round-3 message to p1 lets p1 take the fast path
        # (it sees only non-⊥ values) while p2, which received the ⊥,
        # must wait for p1's DECIDE.
        builder = ScheduleBuilder(3, 1, 16)
        for k in (1, 2):
            builder.delay(0, 1, k, 3)
            builder.delay(0, 2, k, 3)
        builder.delay(0, 1, 3, 5)
        trace = run_and_check(ATt2.factory(), builder.build(), [0, 1, 1])
        assert trace.decision_round(1) == 3  # fast path at t + 2
        assert trace.decision_round(2) == 4  # via p1's DECIDE
        assert trace.decision_round(0) == 4  # via p1's DECIDE
        assert trace.decided_values() == {1}


class TestMessageFormats:
    def test_phase_one_payloads_are_estimates(self):
        schedule = Schedule.failure_free(3, 1, 8)
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        for k in (1, 2):
            for pid in range(3):
                assert trace.record(k).sent[pid][0] == "ESTIMATE"

    def test_phase_two_payloads_are_new_estimates(self):
        schedule = Schedule.failure_free(3, 1, 8)
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        for pid in range(3):
            assert trace.record(3).sent[pid][0] == NEWESTIMATE

    def test_round_t_plus_3_is_decide(self):
        schedule = Schedule.failure_free(3, 1, 8)
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        for pid in range(3):
            assert trace.record(4).sent[pid] == ("DECIDE", 1)
