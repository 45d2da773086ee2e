"""Round-view delivery: bucket structure, sharing, and the one hook.

The RoundView contract the algorithms rely on: current-round items
pre-partitioned by tag in canonical order, delayed triples separate,
DECIDE payloads collected across both in message order, and lazily
materialized flat messages identical to what the reference kernel
delivers.  Plus: ``deliver_view`` is the one (abstract) receive hook,
and the compiled plan's sharing groups never mix receivers with
different delivery plans.
"""

import pytest

from repro.algorithms.base import Automaton, make_automata
from repro.algorithms.common import ConsensusAutomaton, decide_payload
from repro.algorithms.registry import get_factory
from repro.model.messages import Message
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.compiled import compile_schedule
from repro.sim.kernel import execute, execute_reference
from repro.sim.random_schedules import random_es_schedule
from repro.sim.view import RoundView, all_pids


def entry(sent_round, sender, payload):
    return (sent_round, sender, payload)


def view_of(*entries, round=2, receiver=0, n=4):
    return RoundView.from_entries(round, receiver, n, entries)


class TestBucketStructure:
    def test_current_and_delayed_split(self):
        view = view_of(
            entry(1, 2, ("A", 1)),
            entry(2, 0, ("A", 2)),
            entry(2, 1, ("B", 3)),
        )
        assert view.delayed == ((1, 2, ("A", 1)),)
        assert view.current == ((0, ("A", 2)), (1, ("B", 3)))
        assert view.size == 3

    def test_tag_partition(self):
        view = view_of(
            entry(2, 0, ("A", 2)),
            entry(2, 1, ("B", 3)),
            entry(2, 2, ("A", 9)),
        )
        assert view.tagged("A") == ((0, ("A", 2)), (2, ("A", 9)))
        assert view.tagged("B") == ((1, ("B", 3)),)
        assert view.tagged("MISSING") == ()

    def test_non_tuple_payload_tags_as_itself(self):
        view = view_of(entry(2, 1, 42))
        assert view.tagged(42) == ((1, 42),)

    def test_sender_sets(self):
        view = view_of(
            entry(1, 3, ("OLD",)),  # delayed: not a current sender
            entry(2, 0, ("A",)),
            entry(2, 2, ("A",)),
        )
        assert view.current_senders == frozenset({0, 2})
        assert view.absent == frozenset({1, 3})
        assert view.all_pids == frozenset(range(4))

    def test_decides_collected_in_canonical_order(self):
        view = view_of(
            entry(1, 1, decide_payload(7)),
            entry(2, 0, ("A",)),
            entry(2, 2, decide_payload(9)),
        )
        assert view.decides == (decide_payload(7), decide_payload(9))

    def test_bare_decide_string_is_not_a_decide(self):
        # is_decide requires a tuple payload; a scalar "DECIDE" payload
        # tags as itself but must not enter the decide protocol.
        view = view_of(entry(2, 1, "DECIDE"))
        assert view.decides == ()
        assert view.tagged("DECIDE") == ((1, "DECIDE"),)

    def test_messages_materialize_canonically(self):
        view = view_of(
            entry(1, 2, ("OLD",)),
            entry(2, 0, ("A",)),
            entry(2, 1, ("B",)),
            receiver=3,
        )
        messages = view.messages
        assert messages == (
            Message(sent_round=1, sender=2, receiver=3, payload=("OLD",)),
            Message(sent_round=2, sender=0, receiver=3, payload=("A",)),
            Message(sent_round=2, sender=1, receiver=3, payload=("B",)),
        )
        assert view.messages is messages  # cached

    def test_from_messages_round_trips(self):
        messages = (
            Message(sent_round=1, sender=2, receiver=0, payload=("OLD",)),
            Message(sent_round=2, sender=1, receiver=0, payload=("A", 5)),
        )
        view = RoundView.from_messages(2, 0, 3, messages)
        assert view.messages == messages
        assert view.delayed == ((1, 2, ("OLD",)),)
        assert view.tagged("A") == ((1, ("A", 5)),)

    def test_all_pids_interned(self):
        assert all_pids(7) is all_pids(7)
        assert all_pids(7) == frozenset(range(7))


class TestShifted:
    def test_shift_drops_and_rebases(self):
        view = view_of(
            entry(3, 0, ("OLD", 1)),   # sent during C's negative rounds
            entry(5, 1, ("MID", 2)),
            entry(6, 2, ("CUR", 3)),
            round=6,
        )
        shifted = view.shifted(4)
        assert shifted.round == 2
        assert shifted.delayed == ((1, 1, ("MID", 2)),)
        assert shifted.current == view.current
        assert shifted.current_senders == view.current_senders

    def test_shift_refuses_decides(self):
        view = view_of(entry(6, 1, decide_payload(0)), round=6)
        with pytest.raises(ValueError, match="DECIDE"):
            view.shifted(4)


class Recorder(Automaton):
    """Records each round's flat inbox, then decides and halts."""

    def __init__(self, pid, n, t, proposal):
        super().__init__(pid, n, t, proposal)
        self.seen = []

    def payload(self, k):
        return ("REC", k, self.pid)

    def deliver_view(self, k, view):
        self.seen.append((k, view.messages))
        if k >= 3:
            self._decide(self.proposal, k)
            self._halt()


class TestOneHook:
    def test_view_messages_is_the_canonical_flat_inbox(self):
        builder = ScheduleBuilder(3, 1, horizon=5)
        builder.delay(sender=2, receiver=0, k=1, until=2)
        schedule = builder.build()
        automata = make_automata(Recorder, 3, 1, [0, 1, 2])
        reference_automata = make_automata(Recorder, 3, 1, [0, 1, 2])
        reference = execute_reference(reference_automata, schedule)
        trace = execute(automata, schedule, trace="full")
        assert trace == reference
        assert [a.seen for a in automata] == [
            a.seen for a in reference_automata
        ]
        k, inbox = automata[0].seen[1]  # round 2 at the delayed receiver
        assert k == 2
        assert [m.sent_round for m in inbox] == [1, 2, 2, 2]
        assert all(m.receiver == 0 for m in inbox)

    def test_hookless_subclass_fails_at_construction(self):
        class NoHooks(Automaton):
            def payload(self, k):
                return None

        class Hookless(ConsensusAutomaton):
            def round_payload(self, k):
                return None

        for cls in (NoHooks, Hookless):
            with pytest.raises(TypeError, match="abstract"):
                cls(0, 3, 1, 0)

    def test_removed_flat_hooks_do_not_satisfy_the_contract(self):
        # An automaton written against the removed flat-inbox hooks
        # must fail loudly, not run with its receive phase ignored.
        class FlatOnly(Automaton):
            def payload(self, k):
                return None

            def deliver(self, k, messages):  # pragma: no cover
                raise AssertionError("flat hook must never be driven")

        class FlatRoundOnly(ConsensusAutomaton):
            def round_payload(self, k):
                return None

            def round_deliver(self, k, messages):  # pragma: no cover
                raise AssertionError("flat hook must never be driven")

        for cls in (FlatOnly, FlatRoundOnly):
            with pytest.raises(TypeError, match="abstract"):
                cls(0, 3, 1, 0)

    @pytest.mark.parametrize("mode", ["full", "lean"])
    def test_view_only_automaton_runs_in_both_trace_modes(self, mode):
        class ViewOnly(Automaton):
            def __init__(self, pid, n, t, proposal):
                super().__init__(pid, n, t, proposal)
                self.tagged_counts = []

            def payload(self, k):
                return ("VO", k)

            def deliver_view(self, k, view):
                self.tagged_counts.append(len(view.tagged("VO")))
                if k >= 2:
                    self._decide(self.proposal, k)
                    self._halt()

        schedule = Schedule.failure_free(3, 1, 4)
        automata = make_automata(ViewOnly, 3, 1, [0, 1, 2])
        trace = execute(automata, schedule, trace=mode)
        assert trace.decisions == {0: (0, 2), 1: (1, 2), 2: (2, 2)}
        assert [a.tagged_counts for a in automata] == [[3, 3]] * 3

    def test_round_hook_override_on_algorithm_subclass_wins(self):
        # The extension surface: a subclass of a stock algorithm that
        # overrides round_deliver_view runs its override, under the
        # compiled kernel and the reference kernel alike.
        from repro.algorithms.floodset import FLOOD, FloodSet

        calls = []

        class MaxFloodSet(FloodSet):
            def round_deliver_view(self, k, view):
                calls.append(k)
                union = set(self.known)
                for _sender, payload in view.tagged(FLOOD):
                    union.update(payload[2])
                self.known = frozenset(union)
                if k == self.t + 1:
                    self._decide(max(self.known), k)

        schedule = Schedule.failure_free(4, 1, 6)
        trace = execute(
            make_automata(MaxFloodSet, 4, 1, [3, 1, 4, 1]), schedule,
            trace="full",
        )
        assert calls, "the subclass's round hook never ran"
        assert trace.decided_values() == {4}
        reference = execute_reference(
            make_automata(MaxFloodSet, 4, 1, [3, 1, 4, 1]), schedule
        )
        assert trace == reference

    def test_consensus_deliver_view_override_drives_the_run(self):
        # A ConsensusAutomaton subclass may take over the whole receive
        # phase, DECIDE handling included, by overriding deliver_view.
        class TakesOver(ConsensusAutomaton):
            announce_decision = False

            def round_payload(self, k):
                return ("TO", k, self.proposal)

            def deliver_view(self, k, view):
                assert all(isinstance(m, Message) for m in view.messages)
                if k == 2:
                    self._decide(self.proposal, k)
                    self._halt()

            def round_deliver_view(self, k, view):  # pragma: no cover
                raise AssertionError("deliver_view override bypasses hooks")

        schedule = Schedule.failure_free(3, 1, 5)
        trace = execute(
            make_automata(TakesOver, 3, 1, [4, 5, 6]), schedule,
            trace="full",
        )
        reference = execute_reference(
            make_automata(TakesOver, 3, 1, [4, 5, 6]), schedule
        )
        assert trace == reference
        assert trace.decisions == {0: (4, 2), 1: (5, 2), 2: (6, 2)}


class TestPlanSharingGroups:
    def test_groups_partition_by_plan_equality(self):
        schedule = random_es_schedule(6, 2, seed=11, horizon=10)
        plan = compile_schedule(schedule)
        for k in range(1, plan.horizon + 1):
            for receiver in range(plan.n):
                crep = plan.current_groups[k][receiver]
                drep = plan.delayed_groups[k][receiver]
                assert crep <= receiver and drep <= receiver
                assert (
                    plan.current_senders[k][crep]
                    == plan.current_senders[k][receiver]
                )
                assert (
                    plan.delayed_inboxes[k][drep]
                    == plan.delayed_inboxes[k][receiver]
                )

    def test_failure_free_rounds_share_one_current_group(self):
        plan = compile_schedule(Schedule.failure_free(5, 2, 6))
        for k in range(1, plan.horizon + 1):
            assert set(plan.current_groups[k]) == {0}
            assert set(plan.delayed_groups[k]) == {0}

    def test_split_inboxes_match_schedule_queries(self):
        # The split halves against the declarative schedule directly
        # (not via the derived `inboxes` property, which merges them).
        schedule = random_es_schedule(6, 2, seed=23, horizon=10)
        plan = compile_schedule(schedule)
        for k in range(1, plan.horizon + 1):
            for receiver in range(plan.n):
                if not schedule.completes_round(receiver, k):
                    continue
                expected = {
                    (sent, sender)
                    for sender, sent in schedule.deliveries_to(receiver, k)
                }
                delayed = plan.delayed_inboxes[k][receiver]
                current = plan.current_senders[k][receiver]
                assert all(sent < k for sent, _sender in delayed)
                assert list(current) == sorted(current)
                merged = set(delayed) | {(k, s) for s in current}
                assert merged == expected


class TestViewKernelEquivalence:
    @pytest.mark.parametrize("name", ["att2", "chandra_toueg", "floodset_ws"])
    def test_view_and_flat_delivery_agree(self, name):
        # Forcing every automaton through flat delivery (materialized
        # message tuples re-delivered via from_messages, structure
        # re-derived per receiver) must not change a single record: the
        # view is a faster representation, never a different one.  The
        # same wrapper is the kernel microbench's "flat" arm, so this
        # test pins the arm's semantics too.
        factory = get_factory(name)
        n, t = 5, 2
        for seed in range(6):
            schedule = random_es_schedule(n, t, seed, horizon=12)
            ported = execute(
                make_automata(factory, n, t, list(range(n))), schedule,
                trace="full",
            )
            flat_automata = make_automata(factory, n, t, list(range(n)))
            for automaton in flat_automata:
                automaton.deliver_view = _flat(automaton)
            flat = execute(flat_automata, schedule, trace="full")
            assert ported == flat


def _flat(automaton):
    """*automaton*'s receive hook, fed its flat inbox via from_messages."""
    deliver_view = automaton.deliver_view

    def deliver_flat(k, view):
        deliver_view(
            k,
            RoundView.from_messages(
                k, automaton.pid, automaton.n, view.messages
            ),
        )

    return deliver_flat
