"""Property suite: the batched Phase-1 plane vs the per-receiver oracle.

The plane (:mod:`repro.sim.phase1_plane`) must be byte-equivalent to the
preserved :meth:`~repro.algorithms.suspicion.EstimateState.compute_view`
— the same oracle pattern as ``test_suspicion.py``, lifted to whole
rounds: for random suspicion patterns, crash sets, and per-receiver
delivery subsets, drive both implementations through the *real* kernel
wiring (a payload grid opened by ``begin_round``, lazy
:class:`~repro.sim.view.RoundView` views over shared
:class:`~repro.sim.view.CurrentCell` buckets of a filled
:class:`~repro.sim.view.SendTable`, ``end_round``) and assert every
receiver's ``(est, halt)`` matches.

The cranked tier (``REPRO_PROPERTY_SAMPLES`` > 500, the nightly lane)
additionally replays full n = 250 kernel executions with the plane
engaged against opted-out runs and exports any diverging schedule as a
replayable JSON artifact under ``REPRO_PROPERTY_ARTIFACTS`` — the same
convention as ``tests/engine/test_property_safety.py``.
"""

import copy
import json
import os

import pytest

from repro.algorithms.suspicion import EstimateState
from repro.sim.bitset import iter_bits
from repro.sim.phase1_plane import Phase1Plane, PlaneRounds, build_run_plane
from repro.sim.view import CurrentCell, RoundView, SendTable


def _samples_from_env(default: int = 200) -> int:
    raw = os.environ.get("REPRO_PROPERTY_SAMPLES", "")
    if not raw:
        return default
    return int(raw)


SAMPLES = _samples_from_env()

#: Cranked lanes also run the n = 250 kernel-replay tier (mirrors the
#: XXL threshold of the engine property harness).
XXL_THRESHOLD = 500


def _lazy_view(k, pid, n, delivered, table):
    """A receiver's round view exactly as the kernel builds it."""
    mask = 0
    for sender in delivered:
        mask |= 1 << sender
    mask &= table.sender_mask
    return RoundView.lazy(k, pid, n, (), (), CurrentCell(table, mask))


def _send_table(n, broadcasts):
    """The filled send table the receivers' views read."""
    table = SendTable(n)
    for sender, payload in sorted(broadcasts.items()):
        table.record(sender, payload)
    return table


def _open_round(plane, k, broadcasts):
    """The kernel's send phase for *broadcasts* (sender -> payload;
    senders absent from it crashed or halted before sending): the round
    opened on the plane from a payload grid.  Returns the send table."""
    senders = sorted(broadcasts)
    plane.begin_round(k, senders, {s: {k: broadcasts[s]} for s in senders})
    return _send_table(plane.n, broadcasts)


def _drive_round(plane, states, oracles, k, broadcasts, deliveries):
    """One kernel-shaped round: send phase, plane round, receive phase.

    *broadcasts* maps sender -> payload; *deliveries* maps receiver ->
    iterable of senders whose broadcast arrives.  Both the plane-backed
    states and the oracle copies receive identical views.
    """
    n = len(states)
    table = _open_round(plane, k, broadcasts)
    for pid, delivered in sorted(deliveries.items()):
        delivered = [s for s in delivered if s in broadcasts]
        view = _lazy_view(k, pid, n, delivered, table)
        plane.compute_view(states[pid], k, view)
        oracles[pid].compute_view(
            k, _lazy_view(k, pid, n, delivered, table)
        )
    plane.end_round()


def _assert_states_match(states, oracles):
    for state, oracle in zip(states, oracles):
        assert state.est == oracle.est, state.pid
        assert type(state.est) is type(oracle.est), state.pid
        assert state.halt == oracle.halt, state.pid
        assert state._halt_mask == oracle._halt_mask, state.pid
        assert state.halt == frozenset(iter_bits(state._halt_mask))
        assert state.payload(1)[3] == state._halt_mask, state.pid


def _fresh_pair(n, ests, halts):
    states = [
        EstimateState(pid=i, n=n, est=ests[i], halt=halts[i])
        for i in range(n)
    ]
    return states, copy.deepcopy(states)


def _automaton_state(automaton):
    """Everything an automaton holds, nested C included, as plain data
    (its plane excluded)."""
    state = {}
    for key, value in sorted(vars(automaton).items()):
        if key in ("_plane", "_underlying_factory"):
            continue
        if key == "state":
            value = (value.est, value._halt_mask)
        elif key == "_underlying" and value is not None:
            value = _automaton_state(value)
        state[key] = value
    if hasattr(automaton, "fd_history"):
        state["fd_history"] = automaton.fd_history
    return state


class TestPlaneMatchesOracle:
    """The core property: whole plane rounds == per-receiver compute()."""

    @staticmethod
    def _strategy():
        from hypothesis import strategies as st

        def rounds_for(n):
            pid = st.integers(min_value=0, max_value=n - 1)
            est = st.one_of(
                st.integers(min_value=-5, max_value=5),
                st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-5, max_value=5),
                st.booleans(),
            )
            one_round = st.tuples(
                st.frozensets(pid, max_size=n),        # crashed senders
                st.frozensets(pid, max_size=n),        # decide-broadcasters
                st.lists(                               # delivered[receiver]
                    st.frozensets(pid, max_size=n),
                    min_size=n, max_size=n,
                ),
            )
            return st.tuples(
                st.just(n),
                st.lists(est, min_size=n, max_size=n),          # initial ests
                st.lists(st.frozensets(pid, max_size=n - 1),    # initial halts
                         min_size=n, max_size=n),
                st.lists(one_round, min_size=1, max_size=3),
            )

        return st.integers(min_value=2, max_value=8).flatmap(rounds_for)

    def test_plane_rounds_equal_oracle_rounds(self):
        from hypothesis import given, settings

        @settings(max_examples=250, deadline=None)
        @given(self._strategy())
        def check(case):
            n, ests, halts, rounds = case
            halts = [halt - {i} for i, halt in enumerate(halts)]
            states, oracles = _fresh_pair(n, ests, halts)
            plane = Phase1Plane(states)
            for k, (crashed, deciders, delivered) in enumerate(rounds, 1):
                broadcasts = {}
                for i in range(n):
                    if i in crashed:
                        continue
                    if i in deciders:
                        # A non-ESTIMATE broadcast sharing the round:
                        # must not enter anyone's Phase-1 fold.
                        broadcasts[i] = ("DECIDE", states[i].est)
                    else:
                        broadcasts[i] = states[i].payload(k)
                deliveries = {
                    pid: delivered[pid]
                    for pid in range(n)
                    if pid not in crashed
                }
                _drive_round(
                    plane, states, oracles, k, broadcasts, deliveries
                )
                _assert_states_match(states, oracles)

        check()

    def test_unorderable_ests_fall_back_per_receiver(self):
        # A round whose circulating ests resist one global sort (int vs
        # str) must still match the oracle, which only compares values
        # that meet inside a single inbox.
        n = 4
        ests = [3, "b", 5, "a"]
        states, oracles = _fresh_pair(n, ests, [frozenset()] * n)
        plane = Phase1Plane(states)
        broadcasts = {i: states[i].payload(1) for i in range(n)}
        # Receivers only ever see mutually orderable subsets.
        deliveries = {0: {0, 2}, 1: {1, 3}, 2: {0, 2}, 3: {1, 3}}
        _drive_round(plane, states, oracles, 1, broadcasts, deliveries)
        assert not plane._sortable
        _assert_states_match(states, oracles)

    def test_equal_but_distinct_est_objects_keep_first_minimal(self):
        # 1 vs 1.0 vs True all compare equal; the fold must keep the
        # lowest sender's *object*, exactly as the oracle's strict-<
        # first-minimal scan does.
        n = 3
        ests = [1.0, True, 1]
        states, oracles = _fresh_pair(n, ests, [frozenset()] * n)
        plane = Phase1Plane(states)
        broadcasts = {i: states[i].payload(1) for i in range(n)}
        deliveries = {i: {0, 1, 2} for i in range(n)}
        _drive_round(plane, states, oracles, 1, broadcasts, deliveries)
        _assert_states_match(states, oracles)
        # Sender 0's 1.0 is the first minimal object for every receiver.
        assert all(type(state.est) is float for state in states)

    def test_out_of_band_halt_growth_is_absorbed_at_begin_round(self):
        # The contract allows state mutation *between* rounds; the row
        # refresh must fold it into the transpose before the round runs.
        n = 3
        states, oracles = _fresh_pair(n, [5, 3, 7], [frozenset()] * n)
        plane = Phase1Plane(states)
        broadcasts = {i: states[i].payload(1) for i in range(n)}
        deliveries = {i: {0, 1, 2} for i in range(n)}
        _drive_round(plane, states, oracles, 1, broadcasts, deliveries)
        for pair in (states, oracles):
            pair[1].halt = frozenset({0})
        broadcasts = {i: states[i].payload(2) for i in range(n)}
        _drive_round(plane, states, oracles, 2, broadcasts, deliveries)
        _assert_states_match(states, oracles)
        assert 1 in states[0].halt  # p1's out-of-band suspicion was seen


class TestRound2Stats:
    """The Figure-4 fast-path fold, plane vs local single-pass oracle."""

    @staticmethod
    def _oracle(view):
        count = 0
        tainted = False
        best = None
        for _sender, payload in view.tagged("ESTIMATE"):
            count += 1
            if payload[3]:
                tainted = True
            value = payload[2]
            if count == 1 or value < best:
                best = value
        return (count, tainted, best)

    def test_stats_match_local_fold(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        def case_for(n):
            pid = st.integers(min_value=0, max_value=n - 1)
            return st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=n, max_size=n),
                st.lists(st.frozensets(pid, max_size=n - 1),
                         min_size=n, max_size=n),
                st.frozensets(pid, max_size=n),   # crashed
                st.frozensets(pid, max_size=n),   # delivered
            )

        @settings(max_examples=250, deadline=None)
        @given(st.integers(min_value=2, max_value=8).flatmap(case_for))
        def check(case):
            n, ests, halts, crashed, delivered = case
            halts = [halt - {i} for i, halt in enumerate(halts)]
            states, _ = _fresh_pair(n, ests, halts)
            plane = Phase1Plane(states)
            table = _open_round(plane, 2, {
                i: states[i].payload(2) for i in range(n) if i not in crashed
            })
            view = _lazy_view(2, 0, n, delivered - crashed, table)
            stats = plane.round2_stats(2, view)
            plane.end_round()
            assert stats == self._oracle(view)

        check()

    def test_empty_round_2_delivery(self):
        # The fast path's degenerate input: nothing delivered at all.
        states, _ = _fresh_pair(3, [1, 2, 3], [frozenset()] * 3)
        plane = Phase1Plane(states)
        table = _open_round(
            plane, 2, {i: states[i].payload(2) for i in range(3)}
        )
        view = _lazy_view(2, 0, 3, (), table)
        assert plane.round2_stats(2, view) == (0, False, None)
        plane.end_round()


class TestDispatchGuards:
    """The plane must refuse to answer outside its open round."""

    def _armed(self):
        states, oracles = _fresh_pair(3, [5, 3, 7], [frozenset()] * 3)
        plane = Phase1Plane(states)
        broadcasts = {i: states[i].payload(1) for i in range(3)}
        return plane, states, oracles, broadcasts

    def test_inactive_plane_falls_back_to_oracle(self):
        plane, states, oracles, broadcasts = self._armed()
        view = _lazy_view(1, 0, 3, {0, 1, 2}, _send_table(3, broadcasts))
        plane.compute_view(states[0], 1, view)        # never opened
        oracles[0].compute_view(1, view)
        assert states[0].est == oracles[0].est
        assert states[0].halt == oracles[0].halt
        assert plane.round2_stats(1, view) is None

    def test_closed_round_falls_back(self):
        plane, states, oracles, broadcasts = self._armed()
        table = _open_round(plane, 1, broadcasts)
        plane.end_round()
        view = _lazy_view(1, 0, 3, {0, 1}, table)
        plane.compute_view(states[0], 1, view)
        oracles[0].compute_view(1, view)
        assert states[0].est == oracles[0].est
        assert states[0].halt == oracles[0].halt

    def test_stale_round_number_falls_back(self):
        plane, states, oracles, broadcasts = self._armed()
        table = _open_round(plane, 2, broadcasts)
        view = _lazy_view(1, 0, 3, {0, 1}, table)
        plane.compute_view(states[0], 1, view)        # k=1, plane at k=2
        oracles[0].compute_view(1, view)
        plane.end_round()
        assert states[0].est == oracles[0].est
        assert states[0].halt == oracles[0].halt


class TestBuildRunPlane:
    """Opt-in rules for binding a run's plane."""

    def test_all_declaring_automata_get_one_shared_plane(self):
        from repro.algorithms.base import make_automata
        from repro.core.att2 import ATt2

        automata = make_automata(ATt2.factory(), 5, 2, list(range(5)))
        plane = build_run_plane(automata)
        assert plane is not None
        assert all(a._plane is plane for a in automata)
        assert plane._states == tuple(a.state for a in automata)

    def test_mixed_run_gets_no_plane(self):
        from repro.algorithms.base import make_automata
        from repro.core.att2 import ATt2

        class OptOut(ATt2):
            @classmethod
            def plane_rounds(cls, t):
                return None

        automata = list(make_automata(ATt2.factory(), 5, 2, range(5)))
        automata[3] = OptOut(3, 5, 2, 3)
        assert build_run_plane(automata) is None
        assert all(a._plane is None for a in automata)

    def test_empty_run_gets_no_plane(self):
        assert build_run_plane(()) is None

    def test_declaring_without_binding_hook_stores_plane(self):
        from repro.algorithms.base import Automaton

        class Declares(Automaton):
            def __init__(self, pid, n, t, proposal):
                super().__init__(pid, n, t, proposal)
                self.state = EstimateState(pid, n, proposal)

            @classmethod
            def plane_rounds(cls, t):
                return PlaneRounds(compute=range(1, t + 2))

            def payload(self, k):
                return self.state.payload(k)

            def deliver_view(self, k, view):
                pass

        automata = [Declares(pid, 3, 1, pid) for pid in range(3)]
        plane = build_run_plane(automata)
        assert plane is not None
        assert all(a._plane is plane for a in automata)


class TestClaimedRounds:
    """Which rounds the kernel lets the plane claim, at n = 9, t = 4.

    ``Phase1Plane.claimed_rounds`` lists them in order: a deterministic
    counter, kept on the plane and out of every trace and record.
    """

    N, T = 9, 4

    def _claimed(self, name, schedule, proposals=None):
        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.sim.kernel import execute

        proposals = list(range(self.N)) if proposals is None else proposals
        claimed = {}
        for trace in ("full", "lean"):
            automata = make_automata(
                get_factory(name), self.N, self.T, proposals
            )
            execute(automata, schedule, trace=trace)
            plane = automata[0]._plane
            assert all(a._plane is plane for a in automata)
            claimed[trace] = plane.claimed_rounds
        assert claimed["full"] == claimed["lean"]
        return claimed["lean"]

    def _failure_free(self):
        from repro.model.schedule import Schedule

        return Schedule.failure_free(self.N, self.T, 3 * self.T + 6)

    @pytest.mark.parametrize("name", ["att2", "adiamond_s"])
    def test_failure_free_phase_one_is_claimed_whole(self, name):
        # Phase 1, then round t + 2, in which everybody decides.
        assert self._claimed(name, self._failure_free()) == [
            1, 2, 3, 4, 5, 6,
        ]

    def test_failure_free_fast_path_leaves_round_one(self):
        # Round 2 is the fast path's, and everybody decides in it.
        assert self._claimed("att2_optimized", self._failure_free()) == [1]

    def test_round_one_crash_skips_only_the_fast_path_round(self):
        from repro.model.schedule import ScheduleBuilder

        builder = ScheduleBuilder(self.N, self.T, 3 * self.T + 6)
        builder.crash(3, 1, delivered_to=[0, 1])
        claimed = self._claimed("att2_optimized", builder.build())
        assert claimed == [1, 3, 4, 5, 6]

    @pytest.mark.parametrize("trace", ["full", "lean"])
    def test_a_decision_ends_claims(self, trace):
        from dataclasses import replace

        from kernel_oracle import execute_reference
        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.model.schedule import ScheduleBuilder
        from repro.sim.kernel import execute

        # Only p0 hears all n round-2 messages, so only p0 decides in
        # round 2 (the fast path).  Its round-3 DECIDE reaches the others
        # in round 5, so round 4 carries no DECIDE at all; p0 has halted
        # by then and must receive nothing, so the plane may not claim
        # round 4 although it is a plane round.
        n, t = self.N, self.T
        builder = ScheduleBuilder(n, t, 3 * t + 6)
        for receiver in range(1, n):
            builder.delay(receiver % (n - 1) + 1, receiver, 2, 3)
            builder.delay(0, receiver, 3, 5)
        schedule = builder.build()
        factory = get_factory("att2_optimized")
        automata = make_automata(factory, n, t, list(range(n)))
        run = execute(automata, schedule, trace=trace)
        assert automata[0]._plane.claimed_rounds == [1]
        assert run.decisions[0] == (0, 2)
        assert all(run.decisions[pid] == (0, 5) for pid in range(1, n))
        reference = execute_reference(
            make_automata(factory, n, t, list(range(n))), schedule
        )
        if trace == "lean":
            reference = replace(reference, rounds=None)
        assert run == reference

    def test_floodset_ws_decision_round_is_not_claimed(self):
        assert self._claimed("floodset_ws", self._failure_free()) == [
            1, 2, 3, 4,
        ]

    @pytest.mark.parametrize("name", ["floodset_ws", "att2"])
    def test_unorderable_estimates_claim_no_round(self, name):
        from kernel_oracle import execute_reference
        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.model.schedule import ScheduleBuilder
        from repro.sim.kernel import run_algorithm

        # p8 proposes a str and hears nobody, nor is heard, so no inbox
        # mixes str and int, but every round's global sort raises.
        horizon = self.T + 1
        builder = ScheduleBuilder(self.N, self.T, horizon)
        for k in range(1, horizon + 1):
            for other in range(self.N - 1):
                builder.lose(self.N - 1, other, k)
                builder.lose(other, self.N - 1, k)
        schedule = builder.build()
        proposals = list(range(self.N - 1)) + ["x"]
        assert self._claimed(name, schedule, proposals) == []
        trace = run_algorithm(
            get_factory(name), schedule, proposals, trace="full"
        )
        reference = execute_reference(
            make_automata(get_factory(name), self.N, self.T, proposals),
            schedule,
        )
        assert trace == reference

    def test_mixed_classes_claim_only_shared_plane_rounds(self):
        from repro.algorithms.floodset_ws import FloodSetWS
        from repro.core.att2_optimized import ATt2Optimized
        from repro.model.schedule import ScheduleBuilder
        from repro.sim.kernel import execute

        automata = [
            (FloodSetWS if pid % 2 else ATt2Optimized)(
                pid, self.N, self.T, pid
            )
            for pid in range(self.N)
        ]
        builder = ScheduleBuilder(self.N, self.T, 3 * self.T + 6)
        builder.crash(3, 1, delivered_to=[0, 1])
        execute(automata, builder.build(), trace="lean")
        # FloodSetWS's plane rounds end at 4; ATt2Optimized's skip 2.
        assert automata[0]._plane.claimed_rounds == [1, 3, 4]

    @pytest.mark.parametrize("name, kinds", [
        ("att2", {"phase1": 5, "t+2": 1, "C": 3}),
        ("att2_optimized", {"phase1": 4, "t+2": 1, "C": 3}),
        ("adiamond_s", {"phase1": 5, "t+2": 1, "C": 3}),
        ("chandra_toueg", {"C": 3}),
    ])
    def test_claimed_round_kinds_on_a_fixed_es_case(self, name, kinds):
        from collections import Counter

        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.sim.kernel import execute
        from repro.sim.random_schedules import random_es_schedule

        # Nobody decides in round t + 2, so C's first cycle (rounds
        # 7-9) is claimed up to its deciding ACK round.
        schedule = random_es_schedule(self.N, self.T, 0)
        for trace in ("full", "lean"):
            automata = make_automata(
                get_factory(name), self.N, self.T, list(range(self.N))
            )
            execute(automata, schedule, trace=trace)
            plane = automata[0]._plane
            counted = Counter(plane.round_kind(k) for k in plane.claimed_rounds)
            assert counted == kinds, trace

    def test_hurfin_raynal_c_rounds_stay_per_view(self):
        from repro.algorithms.base import make_automata
        from repro.core.adiamond_s import ADiamondS
        from repro.sim.kernel import execute
        from repro.sim.random_schedules import random_es_schedule

        # Direct construction gives A_◇S its Hurfin–Raynal C, whose
        # rounds the plane never claims.
        automata = make_automata(ADiamondS, self.N, self.T, range(self.N))
        execute(automata, random_es_schedule(self.N, self.T, 0))
        plane = automata[0]._plane
        assert plane.claimed_rounds == [1, 2, 3, 4, 5, 6]
        assert plane.round_kind(7) == "C"


class TestPlaneSends:
    """Claimed rounds are sent by the plane (:meth:`Phase1Plane.send`)
    in both trace modes and fold once per run of identical receivers;
    each test holds the kernel to ``execute_reference``."""

    N, T = 9, 4
    PLANE_ALGORITHMS = ("att2", "att2_optimized", "adiamond_s",
                        "floodset_ws")

    @staticmethod
    def _run(name, schedule, proposals, trace):
        from dataclasses import replace

        from kernel_oracle import execute_reference
        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.sim.kernel import execute

        n, t = schedule.n, schedule.t
        automata = make_automata(get_factory(name), n, t, proposals)
        run = execute(automata, schedule, trace=trace)
        reference = execute_reference(
            make_automata(get_factory(name), n, t, proposals), schedule
        )
        if trace == "lean":
            reference = replace(reference, rounds=None)
        assert run == reference
        return automata[0]._plane

    @pytest.mark.parametrize("n, t", [(9, 4), (25, 8)], ids=["n9", "n25"])
    @pytest.mark.parametrize("name", PLANE_ALGORITHMS)
    def test_plane_round_payload_is_state_payload(self, name, n, t):
        from kernel_oracle import execute_reference
        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.model.schedule import Schedule
        from repro.sim.random_schedules import (
            random_es_schedule,
            random_scs_schedule,
        )

        schedules = [Schedule.failure_free(n, t, 3 * t + 6)]
        schedules += [random_es_schedule(n, t, seed) for seed in range(2)]
        schedules += [random_scs_schedule(n, t, seed) for seed in range(2)]
        checked = []
        for schedule in schedules:
            automata = make_automata(get_factory(name), n, t, list(range(n)))
            rounds = set(type(automata[0]).plane_rounds(t).compute)
            for automaton in automata:
                def payload(k, automaton=automaton,
                            inner=automaton.payload):
                    sent = inner(k)
                    if k in rounds and not automaton.decided:
                        checked.append(sent == automaton.state.payload(k))
                    return sent

                automaton.payload = payload
            execute_reference(automata, schedule)
        assert checked and all(checked)

    @pytest.mark.parametrize("trace", ["full", "lean"])
    def test_unorderable_round_falls_back_and_later_rounds_claim(
        self, trace
    ):
        from repro.model.schedule import ScheduleBuilder

        # p8's str est meets the others only in round 1's global sort
        # (its crash-round message reaches nobody): round 1 falls back
        # to the automaton sends, rounds 2..t+2 are claimed again.
        builder = ScheduleBuilder(self.N, self.T, 3 * self.T + 6)
        builder.crash(self.N - 1, 1, delivered_to=[])
        proposals = list(range(self.N - 1)) + ["x"]
        plane = self._run("att2", builder.build(), proposals, trace)
        assert plane.claimed_rounds == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("trace", ["full", "lean"])
    def test_unhashable_proposal_raises_in_round_one(self, trace):
        from repro.algorithms.base import make_automata
        from repro.core.att2 import ATt2
        from repro.model.schedule import Schedule
        from repro.sim.kernel import execute

        class OptOut(ATt2):
            @classmethod
            def plane_rounds(cls, t):
                return None

        schedule = Schedule.failure_free(self.N, self.T, 3 * self.T + 6)
        # Lists sort among themselves, so only the hash check can fail.
        proposals = [[pid] for pid in range(self.N)]
        errors = []
        for factory in (ATt2.factory(), OptOut.factory()):
            automata = make_automata(factory, self.N, self.T, proposals)
            with pytest.raises(TypeError) as exc:
                execute(automata, schedule, trace=trace)
            errors.append(str(exc.value))
            # Raised in round 1's send phase: nobody received anything.
            for automaton, proposal in zip(automata, proposals):
                assert automaton.state.est is proposal
                assert automaton.state._halt_mask == 0
        assert errors[0] == errors[1] == "unhashable type: 'list'"

    @pytest.mark.parametrize("trace", ["full", "lean"])
    def test_late_phase_one_messages_deliver_plane_payloads(self, trace):
        from dataclasses import replace

        from kernel_oracle import execute_reference
        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.sim.kernel import execute
        from repro.sim.random_schedules import random_es_schedule

        def record_delayed(automata):
            seen = {}
            for automaton in automata:
                def deliver_view(k, view, pid=automaton.pid,
                                 inner=automaton.deliver_view):
                    if view.delayed:
                        seen[k, pid] = view.delayed
                    inner(k, view)

                automaton.deliver_view = deliver_view
            return seen

        schedule = random_es_schedule(self.N, self.T, 0)
        factory = get_factory("att2")
        proposals = list(range(self.N))
        automata = make_automata(factory, self.N, self.T, proposals)
        seen = record_delayed(automata)
        run = execute(automata, schedule, trace=trace)
        oracle = make_automata(factory, self.N, self.T, proposals)
        expected = record_delayed(oracle)
        reference = execute_reference(oracle, schedule)
        if trace == "lean":
            reference = replace(reference, rounds=None)
        assert run == reference
        claimed = automata[0]._plane.claimed_rounds
        assert claimed == [1, 2, 3, 4, 5, 6, 7, 8, 9]
        # Claimed rounds call no deliver_view; every other round's
        # delayed items equal the reference kernel's.
        assert seen == {
            key: delayed for key, delayed in expected.items()
            if key[0] not in claimed
        }
        assert any(
            sent in claimed
            for (k, _pid), delayed in seen.items() if k not in claimed
            for sent, _sender, _payload in delayed
        )

    def test_full_trace_claimed_rounds_call_no_payload(self):
        from kernel_oracle import execute_reference
        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.model.schedule import Schedule
        from repro.sim.kernel import execute

        schedule = Schedule.failure_free(self.N, self.T, 3 * self.T + 6)
        factory = get_factory("att2")
        proposals = list(range(self.N))
        automata = make_automata(factory, self.N, self.T, proposals)
        payload_rounds = set()
        for automaton in automata:
            def payload(k, inner=automaton.payload):
                payload_rounds.add(k)
                return inner(k)

            automaton.payload = payload
        run = execute(automata, schedule, trace="full")
        claimed = automata[0]._plane.claimed_rounds
        assert claimed == [1, 2, 3, 4, 5, 6]
        # Only round t+3 (DECIDE) is the automata's own send.
        assert payload_rounds == {self.T + 3}
        assert run == execute_reference(
            make_automata(factory, self.N, self.T, proposals), schedule
        )

    def test_failure_free_att2_folds_once_per_claimed_round(self):
        from repro.model.schedule import Schedule

        schedule = Schedule.failure_free(self.N, self.T, 3 * self.T + 6)
        for trace in ("full", "lean"):
            plane = self._run("att2", schedule, list(range(self.N)), trace)
            assert plane.claimed_rounds == [1, 2, 3, 4, 5, 6]
            # Folds count compute() rounds only.
            assert plane.claimed_folds == 5

    def test_random_es_schedule_folds_once_per_receiver(self):
        from repro.sim.compiled import compile_schedule
        from repro.sim.random_schedules import random_es_schedule

        schedule = random_es_schedule(self.N, self.T, 0)
        completers = compile_schedule(schedule).completers
        for trace in ("full", "lean"):
            plane = self._run("att2", schedule, list(range(self.N)), trace)
            receivers = sum(
                len(completers[k]) for k in plane.claimed_rounds
                if plane.round_kind(k) == "phase1"
            )
            assert plane.claimed_folds == receivers == 45

    FOLD_ALGORITHMS = ("att2", "att2_optimized", "adiamond_s",
                       "chandra_toueg")

    @staticmethod
    def _fold_schedule(name, n, t, few_estimates=False, half_acks=False):
        """A schedule in which nobody decides before C's first cycle,
        which starts after round ``offset`` (0 for the baseline)."""
        from repro.model.schedule import ScheduleBuilder

        offset = 0 if name == "chandra_toueg" else t + 2
        builder = ScheduleBuilder(n, t, offset + 3 * t + 6)
        # The last process misses t + 1 round-1 messages, so its Halt
        # set exceeds t and its round-t+2 new estimate is ⊥.
        for sender in range(t + 1):
            builder.lose(sender, n - 1, 1)
        if few_estimates:
            # C's first coordinator, p0, hears n - t - 1 estimates.
            for sender in range(1, t + 2):
                builder.lose(sender, 0, offset + 1)
        if half_acks:
            # p0's PROP reaches ⌊n/2⌋ processes, p0 included; p1's, in
            # cycle 2, misses p2, which adopted p0's and must NACK.
            for receiver in range(n // 2, n):
                builder.lose(0, receiver, offset + 2)
            builder.lose(1, 2, offset + 5)
        return builder.build(), offset

    @staticmethod
    def _run_folds(factory, schedule, proposals, trace):
        """Kernel vs ``execute_reference``: equal traces, and equal
        automaton state (C's included, and A_◇S's detector history)."""
        from dataclasses import replace

        from kernel_oracle import execute_reference
        from repro.algorithms.base import make_automata
        from repro.sim.kernel import execute

        n, t = schedule.n, schedule.t
        automata = make_automata(factory, n, t, proposals)
        run = execute(automata, schedule, trace=trace)
        oracle = make_automata(factory, n, t, proposals)
        reference = execute_reference(oracle, schedule)
        if trace == "lean":
            reference = replace(reference, rounds=None)
        assert run == reference
        assert [_automaton_state(a) for a in automata] == [
            _automaton_state(a) for a in oracle
        ]
        return run, automata

    @pytest.mark.parametrize("trace", ["full", "lean"])
    @pytest.mark.parametrize("n, t", [(9, 4), (25, 8)], ids=["n9", "n25"])
    @pytest.mark.parametrize("name", FOLD_ALGORITHMS)
    def test_claimed_folds_equal_the_per_view_path(self, name, n, t, trace):
        from repro.algorithms.registry import get_factory
        from repro.model.schedule import Schedule
        from repro.sim.random_schedules import (
            random_es_schedule,
            random_proposals,
            random_scs_schedule,
        )

        schedules = [Schedule.failure_free(n, t, 3 * t + 6)]
        schedules += [random_es_schedule(n, t, seed) for seed in range(3)]
        schedules += [random_scs_schedule(n, t, seed) for seed in range(2)]
        schedules += [
            self._fold_schedule(name, n, t, **flags)[0]
            for flags in ({}, {"few_estimates": True}, {"half_acks": True})
        ]
        kinds = set()
        for seed, schedule in enumerate(schedules):
            _run, automata = self._run_folds(
                get_factory(name), schedule, random_proposals(n, seed), trace
            )
            plane = automata[0]._plane
            kinds.update(plane.round_kind(k) for k in plane.claimed_rounds)
        assert "C" in kinds
        assert ("t+2" in kinds) == (name != "chandra_toueg")

    @pytest.mark.parametrize("trace", ["full", "lean"])
    @pytest.mark.parametrize("n, t", [(9, 4), (25, 8)], ids=["n9", "n25"])
    @pytest.mark.parametrize("name", FOLD_ALGORITHMS)
    def test_coordinator_short_of_estimates_sends_no_prop(
        self, name, n, t, trace
    ):
        from repro.algorithms.registry import get_factory
        from repro.model.messages import DUMMY

        schedule, offset = self._fold_schedule(
            name, n, t, few_estimates=True
        )
        run, automata = self._run_folds(
            get_factory(name), schedule, list(range(n)), trace
        )
        # Cycle 1 proposes nothing; cycle 2 (coordinator p1) decides.
        assert automata[0]._plane.claimed_rounds[-6:] == [
            offset + r for r in range(1, 7)
        ]
        assert all(
            decision == (0, offset + 6) for decision in run.decisions.values()
        )
        if trace == "full":
            # Every process sent DUMMY in the PROP round, and every
            # DUMMY counts as a delivered message.
            prop_round = run.rounds[offset + 1]
            assert set(prop_round.sent.values()) == {DUMMY}
            assert sum(
                len(inbox) for inbox in prop_round.delivered.values()
            ) == n * n

    @pytest.mark.parametrize("trace", ["full", "lean"])
    @pytest.mark.parametrize("n, t", [(9, 4), (25, 8)], ids=["n9", "n25"])
    @pytest.mark.parametrize("name", FOLD_ALGORITHMS)
    def test_half_the_acks_decide_nothing(self, name, n, t, trace):
        from repro.algorithms.registry import get_factory

        schedule, offset = self._fold_schedule(name, n, t, half_acks=True)
        run, automata = self._run_folds(
            get_factory(name), schedule, list(range(n)), trace
        )
        plane = automata[0]._plane
        # Exactly ⌊n/2⌋ ACKs in cycle 1's ACK round: claimed, nobody
        # decides, and cycle 2 decides in its ACK round.
        assert offset + 3 in plane.claimed_rounds
        assert plane.claimed_rounds[-1] == offset + 6
        assert sorted({k for _v, k in run.decisions.values()}) == [
            offset + 6
        ]
        inner = [getattr(a, "_underlying", None) or a for a in automata]
        assert inner[2]._proposal_seen is None
        assert inner[2].ts == 1 and inner[3].ts == 2

    @pytest.mark.parametrize("trace", ["full", "lean"])
    @pytest.mark.parametrize("n, t", [(9, 4), (25, 8)], ids=["n9", "n25"])
    @pytest.mark.parametrize(
        "name", ["att2", "att2_optimized", "adiamond_s"]
    )
    def test_bottom_new_estimate_blocks_round_t_plus_2(
        self, name, n, t, trace
    ):
        from repro.algorithms.registry import get_factory
        from repro.types import BOTTOM

        schedule, _offset = self._fold_schedule(name, n, t)
        run, automata = self._run_folds(
            get_factory(name), schedule, list(range(n)), trace
        )
        assert t + 2 in automata[0]._plane.claimed_rounds
        assert automata[n - 1].new_estimate is BOTTOM
        assert all(a.new_estimate == 0 for a in automata[:-1])
        # Everybody heard the ⊥, so nobody decided; all adopted 0.
        assert all(k > t + 2 for _v, k in run.decisions.values())
        assert all(a._underlying.proposal == 0 for a in automata)
        if name == "adiamond_s":
            assert automata[0].fd_history[t + 2] == frozenset()
            assert automata[n - 1].fd_history[1] == frozenset(range(t + 1))

    @pytest.mark.parametrize("trace", ["full", "lean"])
    def test_unorderable_new_estimates_fall_back(self, trace):
        from repro.core.att2 import ATt2
        from repro.model.schedule import ScheduleBuilder

        # t >= n/2 (unsafe, as in E10): two partitions keep estimates
        # of two types into round t + 2, where no global sort works;
        # each receiver hears one type only.
        n, t = 9, 5
        builder = ScheduleBuilder(n, t, t + 4)
        left, right = range(5), range(5, n)
        for k in range(1, t + 4):
            for a in left:
                for b in right:
                    builder.lose(a, b, k)
                    builder.lose(b, a, k)
        proposals = list(range(5)) + ["w", "x", "y", "z"]
        run, automata = self._run_folds(
            ATt2.factory(allow_unsafe_resilience=True),
            builder.build(), proposals, trace,
        )
        assert automata[0]._plane.claimed_rounds == []
        assert run.decisions[0] == (0, t + 2)
        assert run.decisions[n - 1] == ("w", t + 2)

    def test_unorderable_new_estimates_refuse_the_claim(self):
        from repro.algorithms.base import make_automata
        from repro.core.att2 import NEWESTIMATE, ATt2

        automata = make_automata(
            ATt2.factory(), self.N, self.T, list(range(self.N))
        )
        plane = build_run_plane(automata)
        automata[self.N - 1].new_estimate = "x"
        k = self.T + 2
        payloads = [[None] * (k + 1) for _ in range(self.N)]
        assert plane.round_kind(k) == "t+2"
        assert not plane.send(k, range(self.N), payloads)
        # The sends happened; the automata repeat them.
        assert payloads[self.N - 1][k] == (NEWESTIMATE, k, "x")
        assert plane.claimed_rounds == []


def _export_divergence(schedule, proposals, label, algorithm):
    from repro.sim.replay import schedule_to_data

    directory = os.environ.get(
        "REPRO_PROPERTY_ARTIFACTS", "property-failures"
    )
    try:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"phase1-plane-{label}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "algorithm": algorithm,
                    "workload": label,
                    "proposals": list(proposals),
                    "schedule": schedule_to_data(schedule),
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    except OSError:
        return None
    return directory


@pytest.mark.parametrize(
    "name", ["att2", "att2_optimized", "adiamond_s", "floodset_ws"]
)
@pytest.mark.parametrize("seed", range(4))
def test_plane_vs_oracle_at_sweep_scale(seed, name):
    """Cranked-lane tier: n = 250 kernel runs in both trace modes,
    plane vs opt-out.

    The strongest end-to-end form of the oracle property — every round
    of a real random-ES execution, all trace fields — at a width no
    n <= 8 hypothesis case can reach.  Failing schedules export as
    replayable artifacts, like the engine safety harness's.
    """
    if SAMPLES <= XXL_THRESHOLD:
        pytest.skip(
            "n=250 plane-vs-oracle cases run only in cranked lanes "
            f"(REPRO_PROPERTY_SAMPLES > {XXL_THRESHOLD})"
        )
    from dataclasses import replace

    from repro.algorithms.base import make_automata
    from repro.algorithms.registry import get_factory
    from repro.sim.kernel import execute
    from repro.sim.random_schedules import (
        random_es_schedule,
        random_proposals,
    )

    factory = get_factory(name)
    n, t = 250, 32
    schedule = random_es_schedule(n, t, seed, horizon=12)
    proposals = random_proposals(n, seed)
    batched = execute(
        make_automata(factory, n, t, proposals), schedule, trace="full",
    )
    lean = execute(
        make_automata(factory, n, t, proposals), schedule, trace="lean",
    )
    opted_out = make_automata(factory, n, t, proposals)
    # Same automata, same constructor arguments, no plane rounds: no
    # plane is bound and every round runs per receiver.
    no_plane = type(
        "NoPlane", (type(opted_out[0]),),
        {"plane_rounds": classmethod(lambda cls, t: None)},
    )
    for automaton in opted_out:
        automaton.__class__ = no_plane
    oracle = execute(opted_out, schedule, trace="full")
    assert all(a._plane is None for a in opted_out)
    if batched != oracle or lean != replace(oracle, rounds=None):
        exported = _export_divergence(
            schedule, proposals, f"{name}-seed{seed}", name
        )
        pytest.fail(
            f"{name}: plane diverged from oracle on "
            f"random_es(seed={seed}); "
            + (
                f"schedule exported to {exported}/"
                if exported
                else "schedule export FAILED — regenerate from the seed"
            )
        )
