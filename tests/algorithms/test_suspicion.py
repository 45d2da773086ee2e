"""Unit tests for the shared estimate/Halt bookkeeping (Figure 2's compute())."""

from repro.algorithms.suspicion import ESTIMATE, EstimateState, estimate_payload
from repro.model.messages import Message
from repro.sim.view import RoundView


def est_message(k, sender, receiver, est, halt=frozenset()):
    return Message(
        sent_round=k,
        sender=sender,
        receiver=receiver,
        payload=estimate_payload(k, est, frozenset(halt)),
    )


def compute(state, k, messages):
    """Run ``compute()`` on a hand-built inbox, keeping its order."""
    state.compute_view(
        k, RoundView.from_messages(k, state.pid, state.n, tuple(messages))
    )


class TestCompute:
    def test_min_estimate_adopted(self):
        state = EstimateState(pid=0, n=3, est=5)
        compute(
            state,
            1,
            (
                est_message(1, 0, 0, 5),
                est_message(1, 1, 0, 3),
                est_message(1, 2, 0, 7),
            ),
        )
        assert state.est == 3
        assert state.halt == frozenset()

    def test_missing_sender_is_suspected(self):
        state = EstimateState(pid=0, n=3, est=5)
        compute(
            state,
            1,
            (est_message(1, 0, 0, 5), est_message(1, 1, 0, 3)),
        )
        assert state.halt == frozenset({2})

    def test_sender_suspecting_me_joins_halt(self):
        state = EstimateState(pid=0, n=3, est=5)
        compute(
            state,
            1,
            (
                est_message(1, 0, 0, 5),
                est_message(1, 1, 0, 3, halt={0}),
                est_message(1, 2, 0, 7),
            ),
        )
        assert 1 in state.halt

    def test_halt_members_excluded_from_msgset(self):
        state = EstimateState(pid=0, n=3, est=5, halt=frozenset({1}))
        compute(
            state,
            1,
            (
                est_message(1, 0, 0, 5),
                est_message(1, 1, 0, 0),  # est 0 but sender is in Halt
                est_message(1, 2, 0, 7),
            ),
        )
        assert state.est == 5

    def test_estimate_monotone_nonincreasing(self):
        state = EstimateState(pid=0, n=3, est=2)
        compute(
            state,
            1,
            (
                est_message(1, 0, 0, 2),
                est_message(1, 1, 0, 9),
                est_message(1, 2, 0, 4),
            ),
        )
        # Own message keeps the current minimum in play.
        assert state.est == 2

    def test_never_self_suspects(self):
        state = EstimateState(pid=0, n=3, est=5)
        for k in (1, 2, 3):
            compute(state, k, (est_message(k, 0, 0, state.est),))
        assert 0 not in state.halt
        assert state.halt == frozenset({1, 2})

    def test_delayed_and_foreign_messages_ignored(self):
        state = EstimateState(pid=0, n=3, est=5)
        stale = est_message(1, 1, 0, 0)  # sent in round 1...
        compute(state, 2, (est_message(2, 0, 0, 5), stale))
        # ... so in round 2 it neither updates est nor clears suspicion.
        assert state.est == 5
        assert 1 in state.halt

    def test_payload_roundtrip(self):
        state = EstimateState(pid=0, n=3, est=5, halt=frozenset({2}))
        assert state.payload(4) == (ESTIMATE, 4, 5, frozenset({2}))



class TwoPassReference:
    """The original two-pass ``compute()``, kept verbatim as the oracle.

    The shipped implementation is a batched single pass over the round's
    ESTIMATE items; this is the formulation it replaced (filter, sender
    set, ``frozenset(range(n))`` rebuild, msgSet re-filter), against
    which the property below holds them equivalent.
    """

    def __init__(self, pid, n, est, halt=frozenset()):
        self.pid = pid
        self.n = n
        self.est = est
        self.halt = frozenset(halt)

    def compute(self, k, messages):
        current = [
            m
            for m in messages
            if m.sent_round == k and m.tag == ESTIMATE
        ]
        senders = {m.sender for m in current}
        suspected_now = frozenset(range(self.n)) - senders - {self.pid}
        suspecting_me = frozenset(
            m.sender for m in current if self.pid in m.payload[3]
        )
        self.halt = self.halt | suspected_now | suspecting_me
        msg_set = [m for m in current if m.sender not in self.halt]
        if msg_set:
            self.est = min(m.payload[2] for m in msg_set)


class TestBatchedComputeEqualsTwoPassReference:
    """Satellite property: the batched single-pass update is the paper's
    compute(), bit for bit, over adversarial message mixtures."""

    @staticmethod
    def _strategy():
        from hypothesis import strategies as st

        n = st.integers(min_value=2, max_value=8)

        def messages_for(n_value):
            pid_st = st.integers(min_value=0, max_value=n_value - 1)
            halt_st = st.frozensets(pid_st, max_size=n_value)
            estimate = st.builds(
                lambda k, sender, est, halt: Message(
                    sent_round=k, sender=sender, receiver=0,
                    payload=estimate_payload(k, est, halt),
                ),
                st.integers(min_value=1, max_value=4),
                pid_st,
                st.integers(min_value=-5, max_value=5),
                halt_st,
            )
            foreign = st.builds(
                lambda k, sender, tag: Message(
                    sent_round=k, sender=sender, receiver=0,
                    payload=(tag, k, sender),
                ),
                st.integers(min_value=1, max_value=4),
                pid_st,
                st.sampled_from(["DECIDE", "FLOOD", "NEWESTIMATE"]),
            )
            return st.tuples(
                st.just(n_value),
                pid_st,
                halt_st,
                st.lists(st.one_of(estimate, foreign), max_size=12),
                st.integers(min_value=1, max_value=4),
            )

        return n.flatmap(messages_for)

    def test_batched_equals_reference(self):
        from hypothesis import given, settings

        @settings(max_examples=300, deadline=None)
        @given(self._strategy())
        def check(case):
            n, pid, halt, messages, k = case
            halt = frozenset(halt) - {pid}  # a process never self-suspects
            batched = EstimateState(pid=pid, n=n, est=99, halt=halt)
            reference = TwoPassReference(pid=pid, n=n, est=99, halt=halt)
            compute(batched, k, messages)
            reference.compute(k, tuple(messages))
            assert batched.halt == reference.halt
            assert batched.est == reference.est

        check()

    def test_canonical_inboxes_equal_reference(self):
        # Kernel-shaped inboxes: canonically sorted, delayed messages
        # mixed in, the view built the way execute_reference builds it.
        for seed in range(40):
            import random

            rng = random.Random(seed)
            n = rng.randint(2, 7)
            pid = rng.randrange(n)
            k = rng.randint(1, 4)
            messages = []
            for _ in range(rng.randint(0, 10)):
                sender = rng.randrange(n)
                sent = rng.randint(1, k)
                if rng.random() < 0.7:
                    payload = estimate_payload(
                        sent, rng.randint(-5, 5),
                        frozenset(rng.sample(range(n), rng.randint(0, n))),
                    )
                else:
                    payload = ("FLOOD", sent, sender)
                messages.append(Message(
                    sent_round=sent, sender=sender, receiver=pid,
                    payload=payload,
                ))
            messages.sort()
            reference = TwoPassReference(pid=pid, n=n, est=42)
            via_view = EstimateState(pid=pid, n=n, est=42)
            reference.compute(k, tuple(messages))
            via_view.compute_view(
                k, RoundView.from_messages(k, pid, n, tuple(messages))
            )
            assert reference.halt == via_view.halt
            assert reference.est == via_view.est
