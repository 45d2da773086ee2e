"""Tests for FloodSetWS: sound under P, *unsound* under false suspicion.

The second half of this file is the paper's motivation in executable form:
a single ES-legal run with false suspicions makes FloodSetWS disagree,
while A_{t+2} — the same algorithm plus one detection round — survives the
identical schedule.
"""

import pytest

from repro import ATt2, FloodSetWS, Schedule
from repro.analysis.metrics import check_agreement, check_consensus
from repro.lowerbound.adversary import AdversaryBudget, run_leaves
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm
from tests.conftest import run_and_check


class TestUnderPerfectDetection:
    def test_failure_free_decides_at_t_plus_1(self):
        schedule = Schedule.failure_free(5, 2, 6)
        trace = run_and_check(FloodSetWS, schedule, [3, 1, 4, 1, 5])
        assert trace.global_decision_round() == 3
        assert trace.decided_values() == {1}

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (4, 2)])
    def test_all_serial_runs_safe(self, n, t):
        proposals = list(range(n))
        budget = AdversaryBudget.serial(t, t + 1)
        for events, trace in run_leaves(
            FloodSetWS, proposals, t=t, budget=budget, horizon=t + 3
        ):
            problems = check_consensus(trace)
            assert not problems, (events, problems)

    def test_halt_set_excludes_crashed_senders(self):
        schedule = Schedule.synchronous(4, 2, 6, crashes={3: (1, [0])})
        trace = run_and_check(FloodSetWS, schedule, [9, 8, 7, 0])
        # p3 delivered its proposal 0 only to p0 before crashing; the
        # flood spreads it, so everyone decides 0.
        assert trace.decided_values() == {0}


def false_suspicion_schedule(horizon=6):
    """n=3, t=1: p0's messages to both peers delayed in rounds 1 and 2.

    ES-legal (each receiver still hears n−t = 2 processes per round;
    nothing is lost; rounds >= 3 synchronous), but p1 and p2 falsely
    suspect p0 throughout Phase 1.
    """
    builder = ScheduleBuilder(3, 1, horizon)
    for k in (1, 2):
        builder.delay(0, 1, k, 3)
        builder.delay(0, 2, k, 3)
    return builder.build()


class TestUnderFalseSuspicion:
    def test_floodset_ws_disagrees(self):
        schedule = false_suspicion_schedule()
        trace = run_algorithm(FloodSetWS, schedule, [0, 1, 1])
        # p0 keeps its estimate 0 (everyone else is in its Halt set) while
        # p1 and p2 never see 0 — a real agreement violation.
        assert trace.decision_value(0) == 0
        assert trace.decision_value(1) == 1
        assert check_agreement(trace)

    def test_att2_survives_the_same_schedule(self):
        schedule = false_suspicion_schedule(horizon=16)
        trace = run_and_check(ATt2.factory(), schedule, [0, 1, 1])
        assert len(trace.decided_values()) == 1

    def test_att2_detects_the_false_suspicion(self):
        from repro.types import is_bottom

        schedule = false_suspicion_schedule(horizon=16)
        from repro.algorithms.base import make_automata
        from repro.sim.kernel import execute

        automata = make_automata(ATt2.factory(), 3, 1, [0, 1, 1])
        execute(automata, schedule)
        # p0 accumulated |Halt| = 2 > t = 1: it flags the false suspicion
        # by proposing ⊥ in Phase 2 instead of deciding on stale state.
        assert is_bottom(automata[0].new_estimate)
