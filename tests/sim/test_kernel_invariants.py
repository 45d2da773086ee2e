"""Property-based kernel invariants over random schedules and algorithms.

These pin down the simulation semantics every result depends on:

* every delivered message was actually sent in its tagged round by a
  then-alive, non-halted process;
* no message is delivered twice;
* messages are never delivered before their sending round, and lost
  messages never appear;
* views are prefix-stable: ``view(p, k)`` is a prefix of ``view(p, k+1)``;
* executing the same automata class twice yields identical traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_factory
from repro.sim.kernel import run_algorithm
from repro.sim.random_schedules import (
    random_es_schedule,
    random_proposals,
)

from kernel_oracle import delivery_round

ALGORITHMS = st.sampled_from(
    ["att2", "att2_optimized", "adiamond_s", "hurfin_raynal",
     "chandra_toueg"]
)


def run_random(name, seed):
    schedule = random_es_schedule(5, 2, seed, horizon=18, sync_by=7)
    factory = get_factory(name)
    trace = run_algorithm(factory, schedule, random_proposals(5, seed))
    return schedule, trace


class TestDeliveryInvariants:
    @given(name=ALGORITHMS, seed=st.integers(0, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_delivered_messages_were_sent(self, name, seed):
        _schedule, trace = run_random(name, seed)
        for rec in trace.rounds:
            for pid, inbox in rec.delivered.items():
                del pid
                for message in inbox:
                    sent = trace.record(message.sent_round).sent
                    assert sent.get(message.sender) == message.payload

    @given(name=ALGORITHMS, seed=st.integers(0, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_no_duplicate_delivery(self, name, seed):
        _schedule, trace = run_random(name, seed)
        for pid in range(trace.n):
            seen = set()
            for rec in trace.rounds:
                for message in rec.delivered.get(pid, ()):
                    key = (message.sender, message.sent_round)
                    assert key not in seen, key
                    seen.add(key)

    @given(name=ALGORITHMS, seed=st.integers(0, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_no_time_travel(self, name, seed):
        _schedule, trace = run_random(name, seed)
        for rec in trace.rounds:
            for inbox in rec.delivered.values():
                for message in inbox:
                    assert message.sent_round <= rec.round

    @given(name=ALGORITHMS, seed=st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_delivery_matches_schedule(self, name, seed):
        schedule, trace = run_random(name, seed)
        for rec in trace.rounds:
            for pid, inbox in rec.delivered.items():
                for message in inbox:
                    assert (
                        delivery_round(
                            schedule, message.sender, pid, message.sent_round
                        )
                        == rec.round
                    )


class TestViewInvariants:
    @given(name=ALGORITHMS, seed=st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_views_are_prefix_stable(self, name, seed):
        _schedule, trace = run_random(name, seed)
        for pid in range(trace.n):
            previous = trace.view(pid, 0)
            for k in range(1, trace.rounds_executed + 1):
                current = trace.view(pid, k)
                assert current[0] == previous[0]
                assert current[1][: len(previous[1])] == previous[1]
                previous = current

    @given(name=ALGORITHMS, seed=st.integers(0, 20_000))
    @settings(max_examples=30, deadline=None)
    def test_reexecution_is_identical(self, name, seed):
        _schedule, first = run_random(name, seed)
        _schedule, second = run_random(name, seed)
        assert dict(first.decisions) == dict(second.decisions)
        assert first.rounds_executed == second.rounds_executed
        for pid in range(first.n):
            assert first.view(pid, first.rounds_executed) == second.view(
                pid, second.rounds_executed
            )
