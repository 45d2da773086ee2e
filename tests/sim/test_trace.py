"""Tests for traces: views, decisions, summaries."""

from dataclasses import replace

import pytest

from repro import ATt2, FloodSet, Schedule
from repro.errors import SimulationError
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm
from repro.sim.trace import views_equal


def floodset_trace(schedule, proposals):
    return run_algorithm(FloodSet, schedule, proposals)


class TestDecisionAccessors:
    def test_decision_value_and_round(self):
        trace = floodset_trace(Schedule.failure_free(3, 1, 5), [5, 2, 9])
        assert trace.decision_value(0) == 2
        assert trace.decision_round(0) == 2  # t + 1

    def test_missing_decision_is_none(self):
        schedule = Schedule.synchronous(3, 1, 5, crashes={1: (1, [])})
        trace = floodset_trace(schedule, [5, 2, 9])
        assert trace.decision_value(1) is None
        assert trace.decision_round(1) is None

    def test_global_and_first_decision_rounds(self):
        trace = floodset_trace(Schedule.failure_free(3, 1, 5), [1, 2, 3])
        assert trace.global_decision_round() == 2
        assert trace.first_decision_round() == 2

    def test_no_decisions(self):
        # Horizon 1 is too short for FloodSet with t=1.
        trace = floodset_trace(Schedule.failure_free(3, 1, 1), [1, 2, 3])
        assert trace.global_decision_round() is None
        assert trace.decided_values() == set()

    def test_deciders(self):
        schedule = Schedule.synchronous(3, 1, 5, crashes={2: (2, [])})
        trace = floodset_trace(schedule, [1, 2, 3])
        assert trace.deciders() == frozenset({0, 1})


class TestViews:
    def test_view_includes_proposal(self):
        trace = floodset_trace(Schedule.failure_free(3, 1, 4), [4, 5, 6])
        proposal, _entries = trace.view(1, 2)
        assert proposal == 5

    def test_views_differ_on_different_proposals(self):
        a = floodset_trace(Schedule.failure_free(3, 1, 4), [1, 2, 3])
        b = floodset_trace(Schedule.failure_free(3, 1, 4), [1, 2, 4])
        # p2's own proposal differs; p0 sees the difference in round 1.
        assert a.view(2, 0) != b.view(2, 0)
        assert a.view(0, 1) != b.view(0, 1)

    def test_view_prefix_equality_before_divergence(self):
        sync = Schedule.failure_free(3, 1, 4)
        crashy = Schedule.synchronous(3, 1, 4, crashes={2: (2, [])})
        a = floodset_trace(sync, [1, 2, 3])
        b = floodset_trace(crashy, [1, 2, 3])
        # Identical through round 1; p0 notices p2's silence in round 2.
        assert views_equal(a, b, 0, 1)
        assert not views_equal(a, b, 0, 2)

    def test_view_of_crashed_process_freezes(self):
        # A_{t+2} runs past the crash round (FloodSet would already have
        # quiesced), exposing the frozen view.
        crashy = Schedule.synchronous(3, 1, 8, crashes={2: (2, [])})
        trace = run_algorithm(ATt2.factory(), crashy, [1, 2, 3])
        assert trace.rounds_executed >= 3
        _prop, entries = trace.view(2, trace.rounds_executed)
        by_round = {entry[0]: entry for entry in entries}
        assert by_round[2][1] is not None  # sent in its crash round
        assert by_round[2][2] is None  # but never completed it
        assert by_round[3][1] is None  # silent afterwards

    def test_completed(self):
        crashy = Schedule.synchronous(3, 1, 4, crashes={2: (2, [])})
        trace = floodset_trace(crashy, [1, 2, 3])
        assert trace.completed(2, 1)
        assert not trace.completed(2, 2)
        assert trace.completed(0, 2)


class TestCounting:
    def test_message_count_failure_free(self):
        trace = floodset_trace(Schedule.failure_free(3, 1, 5), [1, 2, 3])
        # Rounds executed: t+1 = 2 (halt at decision); 9 messages per round.
        assert trace.rounds_executed == 2
        assert trace.message_count() == 18

    def test_iter_messages_round_ordered(self):
        trace = floodset_trace(Schedule.failure_free(3, 1, 5), [1, 2, 3])
        rounds = [m.sent_round for m in trace.iter_messages()]
        assert rounds == sorted(rounds)

    def test_describe_contains_decisions(self):
        trace = floodset_trace(Schedule.failure_free(3, 1, 5), [1, 2, 3])
        text = trace.describe()
        assert "p0->1@r2" in text


class TestLeanTrace:
    """A lean trace is the full trace of the same run minus ``rounds``."""

    def _pair(self):
        schedule = Schedule.synchronous(5, 2, 12, crashes={0: (1, [1])})
        full = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        lean = run_algorithm(
            ATt2.factory(), schedule, [3, 1, 4, 1, 5], trace="lean"
        )
        return full, lean

    def test_lean_is_full_without_rounds(self):
        full, lean = self._pair()
        assert lean.rounds is None
        assert replace(full, rounds=None) == lean

    def test_round_accessors_refuse_lean_traces(self):
        _full, lean = self._pair()
        with pytest.raises(SimulationError, match="requires a full trace"):
            lean.record(1)
        with pytest.raises(SimulationError, match="requires a full trace"):
            lean.view(2, 3)
        with pytest.raises(SimulationError, match="requires a full trace"):
            list(lean.iter_messages())

    def test_describe_skips_rounds(self):
        full, lean = self._pair()
        assert "round 1:" in full.describe()
        assert "round 1:" not in lean.describe()
        decisions = full.describe().splitlines()[-1]
        assert lean.describe().splitlines()[-1] == decisions


class TestDelayedMessagesInViews:
    def test_delayed_arrival_visible_in_view(self):
        builder = ScheduleBuilder(3, 1, 8)
        builder.delay(0, 1, 1, 3)
        schedule = builder.build()
        trace = run_algorithm(ATt2.factory(), schedule, [1, 2, 3])
        _prop, entries = trace.view(1, 3)
        round3 = entries[2]
        assert any(
            sender == 0 and sent_round == 1
            for sent_round, sender, _payload in round3[2]
        )
