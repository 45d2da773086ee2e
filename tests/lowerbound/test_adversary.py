"""Tests for the adversary walk: moves, walk order, schedules, validation."""

from itertools import combinations

import pytest

from repro import ATt2, FloodSet
from repro.lowerbound.adversary import (
    AdversaryBudget,
    CrashEvent,
    DelayEvent,
    build_schedule,
    round_moves,
    walk,
)
from repro.lowerbound.model_check import (
    check_consensus_safety,
    worst_case_serial,
)
from repro.lowerbound.valency import valency

DELAYS_ONLY = AdversaryBudget(
    max_crashes=0, crash_rounds=0, async_rounds=2, max_delays_per_round=1
)


def _serial_oracle(n, t, rounds, events=(), k=1):
    """Serial runs straight from the paper's definition, in walk order."""
    if k > rounds:
        yield events
        return
    yield from _serial_oracle(n, t, rounds, events, k + 1)
    if len(events) >= t:
        return
    alive = [p for p in range(n) if p not in {e.pid for e in events}]
    for pid in alive:
        others = [q for q in alive if q != pid]
        for size in range(len(others) + 1):
            for subset in combinations(others, size):
                crash = CrashEvent(round=k, pid=pid,
                                   delivered_to=frozenset(subset))
                yield from _serial_oracle(n, t, rounds, events + (crash,),
                                          k + 1)


class TestOneRoundWalk:
    def test_includes_no_crash(self):
        assert () in list(walk(3, 1, AdversaryBudget.serial(1, 1)))

    def test_counts_for_n3_t1(self):
        # no-crash + 3 crashers x 2^2 delivery subsets = 13.
        assert len(list(walk(3, 1, AdversaryBudget.serial(1, 1)))) == 13

    def test_budget_exhausted_gives_only_no_crash(self):
        events = (CrashEvent(round=1, pid=0, delivered_to=frozenset()),)
        budget = AdversaryBudget.serial(1, 2)
        assert list(walk(3, 1, budget, events, 1)) == [events]

    def test_crashed_process_not_a_receiver(self):
        events = (CrashEvent(round=1, pid=0, delivered_to=frozenset()),)
        for path in walk(3, 2, AdversaryBudget.serial(2, 2), events, 1):
            for event in path:
                if event.round == 2:
                    assert event.pid != 0
                    assert 0 not in event.delivered_to

    def test_move_order(self):
        """No crash first, then crasher pid ascending, then delivery
        subsets by size, then delay sets (the empty set first)."""
        budget = AdversaryBudget(max_crashes=1, crash_rounds=1,
                                 async_rounds=1, max_delays_per_round=1)
        moves = list(round_moves(3, 1, budget, (), 1))
        no_delay = [move for move in moves
                    if not any(isinstance(e, DelayEvent) for e in move)]
        assert no_delay[0] == ()
        crashes = [move[0] for move in no_delay[1:]]
        assert [(c.pid, len(c.delivered_to)) for c in crashes] == [
            (0, 0), (0, 1), (0, 1), (0, 2), (1, 0), (1, 1), (1, 1), (1, 2),
            (2, 0), (2, 1), (2, 1), (2, 2),
        ]
        # Each crash choice is followed by its delay sets: 6 pairs without
        # a crash, 2 among the two survivors of one.
        assert moves[:7] == [()] + [
            (DelayEvent(round=1, sender=s, receiver=r, until=2),)
            for s, r in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
        ]
        assert len(moves) == 7 + 12 * 3


class TestSerialWalk:
    def test_run_count_n3_t1_two_rounds(self):
        # Round 1: 13 options; options with a crash allow only the
        # no-crash continuation (budget 1); the no-crash branch re-opens
        # 13 options in round 2: 12 + 13 = 25.
        assert len(list(walk(3, 1, AdversaryBudget.serial(1, 2)))) == 25

    def test_all_enumerated_runs_are_serial(self):
        for events in walk(3, 1, AdversaryBudget.serial(1, 3)):
            assert build_schedule(3, 1, events, 5).is_serial_run()

    def test_unique(self):
        runs = list(walk(4, 1, AdversaryBudget.serial(1, 2)))
        assert len(runs) == len(set(runs))

    @pytest.mark.parametrize("n,t,rounds,count", [
        (3, 1, 3, 37), (4, 1, 3, 97), (5, 2, 3, 7_921),
    ])
    def test_zero_delay_budget_is_the_serial_walk(self, n, t, rounds, count):
        serial = list(walk(n, t, AdversaryBudget.serial(t, rounds)))
        zero_delay = list(walk(n, t, AdversaryBudget(
            max_crashes=t, crash_rounds=rounds, async_rounds=rounds,
            max_delays_per_round=0,
        )))
        assert len(serial) == count
        assert zero_delay == serial == list(_serial_oracle(n, t, rounds))

    def test_delay_free_leaves_of_a_delaying_budget_are_serial(self):
        """Delays nest inside crash choices, so dropping every path with a
        delay leaves exactly the serial walk, in order."""
        budget = AdversaryBudget(max_crashes=1, crash_rounds=2,
                                 async_rounds=2, max_delays_per_round=1)
        delay_free = [
            path for path in walk(3, 1, budget)
            if not any(isinstance(e, DelayEvent) for e in path)
        ]
        assert delay_free == list(walk(3, 1, AdversaryBudget.serial(1, 2)))


class TestWorstCase:
    def test_floodset_is_flat_at_t_plus_1(self):
        worst, worst_events, best, _ = worst_case_serial(
            FloodSet, [0, 1, 2], t=1, crash_rounds_limit=2, horizon=5
        )
        assert worst == best == 2
        # The witness is still reported.
        assert isinstance(worst_events, tuple)


class TestValidation:
    def test_zero_delay_span_rejected(self):
        # delay_span=0 used to turn every delay into a no-op: 49 "runs"
        # over one distinct schedule at n = 3.
        with pytest.raises(ValueError, match="delay_span"):
            AdversaryBudget(delay_span=0)

    @pytest.mark.parametrize("field", [
        "max_crashes", "crash_rounds", "async_rounds", "max_delays_per_round",
    ])
    def test_negative_budget_field_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            AdversaryBudget(**{field: -1})

    def test_explicit_zero_horizon_rejected(self):
        # horizon=0 used to fall back to the default horizon silently.
        with pytest.raises(ValueError, match="horizon 0"):
            check_consensus_safety(ATt2.factory(), [0, 1, 1], t=1,
                                   budget=DELAYS_ONLY, horizon=0)

    def test_horizon_must_hold_last_delay(self):
        # Round-2 delays arrive in round 3.
        with pytest.raises(ValueError, match="need >= 3"):
            check_consensus_safety(ATt2.factory(), [0, 1, 1], t=1,
                                   budget=DELAYS_ONLY, horizon=2)

    def test_explicit_horizon_honoured(self):
        result = check_consensus_safety(ATt2.factory(), [0, 1, 1], t=1,
                                        budget=DELAYS_ONLY, horizon=3)
        assert result.runs == 49
        assert result.worst_global_round == 3
        assert result.decided_runs < result.runs

    def test_prefix_event_after_prefix_rounds_rejected(self):
        # Used to explore 12 non-serial extensions with two round-2
        # crashes and return a valency anyway.
        events = (CrashEvent(round=2, pid=0, delivered_to=frozenset()),)
        with pytest.raises(ValueError, match="after round 1"):
            valency(FloodSet, [0, 1, 1, 1], events, t=2, prefix_rounds=1)

    def test_prefix_with_two_crashes_in_one_round_rejected(self):
        events = (
            CrashEvent(round=1, pid=0, delivered_to=frozenset()),
            CrashEvent(round=1, pid=1, delivered_to=frozenset()),
        )
        with pytest.raises(ValueError, match="two crashes in round 1"):
            list(walk(5, 2, AdversaryBudget.serial(2, 3), events, 1))

    def test_prefix_crashing_one_process_twice_rejected(self):
        events = (
            CrashEvent(round=1, pid=0, delivered_to=frozenset()),
            CrashEvent(round=2, pid=0, delivered_to=frozenset()),
        )
        with pytest.raises(ValueError, match="process 0 twice"):
            list(walk(5, 2, AdversaryBudget.serial(2, 3), events, 2))
