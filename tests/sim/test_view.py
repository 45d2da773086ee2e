"""Round-view delivery: bucket structure, sharing, and the one hook.

The RoundView contract the algorithms rely on: current-round items
pre-partitioned by tag in canonical order, delayed triples separate,
DECIDE payloads collected across both in message order, and lazily
materialized flat messages identical to what the reference kernel
delivers.  Plus: ``deliver_view`` is the one (abstract) receive hook,
the kernel shares current-round buckets exactly between receivers that
heard the same senders, and the lazy bit-walking bucket builder agrees
with the eager constructor on arbitrary send tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import Automaton, make_automata
from repro.algorithms.common import ConsensusAutomaton, decide_payload
from repro.algorithms.registry import get_factory
from repro.model.messages import Message
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.compiled import compile_schedule
from repro.sim.bitset import full_mask, iter_bits, mask_of, select_bits
from repro.sim.kernel import execute
from repro.sim.random_schedules import random_es_schedule, random_proposals
from repro.sim.view import (
    CurrentCell,
    RoundView,
    SendTable,
    all_pids,
    build_delayed_buckets,
)

from kernel_oracle import (
    completes_round,
    delayed_pairs,
    deliveries_to,
    execute_reference,
)


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
        assert len(view.messages) == 3

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
        assert view.current_mask == mask_of({0, 2})
        assert view.absent_mask == mask_of({1, 3})
        assert view.current_mask | view.absent_mask == full_mask(view.n)

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
        assert shifted.current_mask == view.current_mask
        assert shifted.absent_mask == view.absent_mask

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


def _capture_views(automata):
    """Wrap each automaton's receive hook to record, per round, every
    delivered view with the round's broadcaster mask at delivery time
    (the kernel reuses one send table per run)."""
    seen = {}
    for automaton in automata:
        deliver_view = automaton.deliver_view

        def capture(k, view, deliver_view=deliver_view):
            seen.setdefault(k, []).append(
                (view, view._cell.table.sender_mask)
            )
            deliver_view(k, view)

        automaton.deliver_view = capture
    return seen


class HaltsEarly(Automaton):
    """Builds its current buckets every round; process 0 decides and
    halts in round 1, everybody else in round 3."""

    def payload(self, k):
        return ("HE", k)

    def deliver_view(self, k, view):
        assert len(view.current) == view.current_mask.bit_count()
        if k >= (1 if self.pid == 0 else 3):
            self._decide(self.proposal, k)
            self._halt()


class TestPlanSharingGroups:
    def _assert_sharing_follows_the_data(self, plan, seen):
        for k, views in seen.items():
            for view, sender_mask in views:
                pid = view.receiver
                assert view.current_mask == (
                    plan.current_masks[k][pid] & sender_mask
                )
                for other, _ in views:
                    same_mask = view.current_mask == other.current_mask
                    assert (view._cell is other._cell) == same_mask
                    if (
                        plan.delayed_inboxes[k][pid]
                        == plan.delayed_inboxes[k][other.receiver]
                    ):
                        assert view.delayed is other.delayed

    @pytest.mark.parametrize("name", ["att2", "chandra_toueg"])
    def test_groups_partition_by_plan_equality(self, name):
        # Within a kernel round, views share one CurrentCell exactly
        # when they heard the same senders, and views with equal
        # delayed plan rows share one delayed bucket.
        factory = get_factory(name)
        for seed in range(6):
            schedule = random_es_schedule(6, 2, seed=seed, horizon=10)
            proposals = random_proposals(6, seed)
            automata = make_automata(factory, 6, 2, proposals)
            seen = _capture_views(automata)
            trace = execute(automata, schedule, trace="full")
            self._assert_sharing_follows_the_data(
                compile_schedule(schedule), seen
            )
            assert trace == execute_reference(
                make_automata(factory, 6, 2, proposals), schedule
            )

    def test_halted_sender_does_not_split_cells(self):
        # Receivers 1 and 2 have round-2 plan masks that differ only in
        # process 0, which halted in round 1 and never broadcasts
        # again: they heard the same senders, so they share one cell.
        builder = ScheduleBuilder(4, 1, 4)
        builder.lose(0, 1, 2)
        schedule = builder.build()
        plan = compile_schedule(schedule)
        assert plan.current_masks[2][1] ^ plan.current_masks[2][2] == 1
        automata = make_automata(HaltsEarly, 4, 1, [0, 1, 2, 3])
        seen = _capture_views(automata)
        trace = execute(automata, schedule, trace="full")
        self._assert_sharing_follows_the_data(plan, seen)
        views = [view for view, _ in seen[2]]
        assert [view.receiver for view in views] == [1, 2, 3]
        assert all(view._cell is views[0]._cell for view in views)
        assert trace == execute_reference(
            make_automata(HaltsEarly, 4, 1, [0, 1, 2, 3]), schedule
        )

    def test_failure_free_rounds_share_one_current_group(self):
        schedule = Schedule.failure_free(5, 2, 6)
        plan = compile_schedule(schedule)
        automata = make_automata(get_factory("att2"), 5, 2, [3, 1, 4, 1, 5])
        seen = _capture_views(automata)
        execute(automata, schedule, trace="full")
        assert seen
        for k, captured in seen.items():
            assert set(plan.current_masks[k]) == {full_mask(5)}
            first = captured[0][0]
            for view, _ in captured:
                assert view._cell is first._cell
                assert view.delayed is first.delayed

    def test_split_inboxes_match_schedule_queries(self):
        # The split halves against the declarative schedule directly.
        schedule = random_es_schedule(6, 2, seed=23, horizon=10)
        plan = compile_schedule(schedule)
        for k in range(1, plan.horizon + 1):
            for receiver in range(plan.n):
                if not completes_round(schedule, receiver, k):
                    continue
                expected = {
                    (sent, sender)
                    for sender, sent in deliveries_to(schedule, receiver, k)
                }
                delayed = delayed_pairs(plan.delayed_inboxes[k][receiver])
                current = plan.current_masks[k][receiver]
                assert all(sent < k for sent, _sender in delayed)
                assert list(delayed) == sorted(delayed)
                merged = set(delayed) | {(k, s) for s in iter_bits(current)}
                assert merged == expected


#: Payloads with mixed tags: tuple-tagged ones (DECIDE included) and
#: scalars, which tag as themselves — a bare "DECIDE" string is no
#: decide.
_PAYLOADS = st.one_of(
    st.tuples(st.sampled_from(["EST", "DECIDE", "PH2", 7]), st.integers(0, 2)),
    st.sampled_from(["DECIDE", "EST", 5, ()]),
)
_TAGS = ["EST", "DECIDE", "PH2", 7, 5, (), "MISSING"]
_ACCESSORS = ["current", "tagged", "decides", "messages"]
_NOT_SENT = object()


def _read(view, accessor):
    if accessor == "tagged":
        return [view.tagged(tag) for tag in _TAGS]
    return getattr(view, accessor)


class TestLazyBucketBuilder:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 140), data=st.data())
    def test_select_bits_follows_iter_bits(self, n, data):
        mask = data.draw(st.integers(0, full_mask(n)), label="mask")
        items = [("item", i) for i in range(n)]
        assert list(select_bits(items, mask)) == [
            items[i] for i in iter_bits(mask)
        ]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lazy_view_matches_eager_construction(self, data):
        # The kernel path (a filled SendTable, a CurrentCell walking the
        # arrived mask's bits, build_delayed_buckets over the payload
        # grid) against RoundView.from_entries on the same entries.
        n = data.draw(st.integers(1, 70), label="n")
        k = data.draw(st.integers(2, 5), label="k")
        pid = st.integers(0, n - 1)
        table = SendTable(n)
        previous = data.draw(st.dictionaries(pid, _PAYLOADS), label="prev")
        for sender, payload in sorted(previous.items()):
            table.record(sender, payload)
        table.reset()
        sends = data.draw(st.dictionaries(pid, _PAYLOADS), label="sends")
        for sender, payload in sorted(sends.items()):
            table.record(sender, payload)
        mask = data.draw(st.integers(0, full_mask(n)), label="mask")
        mask &= table.sender_mask
        late = data.draw(st.dictionaries(
            st.tuples(st.integers(1, k - 1), pid),
            st.one_of(_PAYLOADS, st.none()),  # None: never broadcast
            max_size=6,
        ), label="late")
        grid = [[_NOT_SENT] * k for _ in range(n)]
        for (sent, sender), payload in late.items():
            if payload is not None:
                grid[sender][sent] = payload
        # The plan's delayed row: one sender mask per sent round.
        row: dict = {}
        for sent, sender in late:
            row[sent] = row.get(sent, 0) | 1 << sender
        delayed, delayed_decides = build_delayed_buckets(
            tuple(sorted(row.items())), grid, _NOT_SENT
        )
        assert delayed == tuple(
            (sent, sender, payload)
            for (sent, sender), payload in sorted(late.items())
            if payload is not None
        )
        lazy = RoundView.lazy(
            k, 0, n, delayed, delayed_decides, CurrentCell(table, mask)
        )
        arrived = [(k, sender, sends[sender]) for sender in iter_bits(mask)]
        eager = RoundView.from_entries(k, 0, n, [*delayed, *arrived])
        assert lazy.current_mask == eager.current_mask
        # Each accessor may be the first to touch the lazy view.
        for accessor in data.draw(st.permutations(_ACCESSORS), label="order"):
            assert _read(lazy, accessor) == _read(eager, accessor), accessor


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
