"""The reference kernel: the equivalence oracle for :mod:`repro.sim.kernel`.

:func:`execute_reference` is the original query-at-a-time round loop.  It
asks the schedule about every (sender, receiver, round) triple, builds
each :class:`~repro.model.messages.Message` with the dataclass
constructor, sorts each inbox and wraps it in a view itself, so it
shares neither the compiled plan nor the lazy buckets with
:func:`repro.sim.kernel.execute`.  Tests and ``benchmarks/bench_kernel.py``
import it from here.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import Automaton
from repro.model.messages import DUMMY, Message, sort_delivery
from repro.model.schedule import Schedule
from repro.sim.kernel import _bounded_horizon, _check_run
from repro.sim.trace import RoundRecord, Trace
from repro.sim.view import RoundView
from repro.types import ProcessId, Round, Value


def execute_reference(
    automata: Sequence[Automaton],
    schedule: Schedule,
    *,
    max_rounds: Round | None = None,
    stop_when_quiescent: bool = True,
) -> Trace:
    """The original query-at-a-time kernel, kept as the oracle.

    Semantically identical to ``execute(..., trace="full")`` but issues
    O(n²) schedule method calls per round; the equivalence test suite
    (``tests/sim/test_compiled.py``) and the ``kernel-bench`` CI lane
    assert the compiled kernel's traces, counters included, match this
    one exactly.
    """
    _check_run(automata, schedule)
    n = schedule.n
    horizon = _bounded_horizon(schedule, max_rounds)

    proposals = tuple(a.proposal for a in automata)
    halted: set[ProcessId] = set()
    halted_rounds: dict[ProcessId, Round] = {}
    message_count = 0
    decided_at: dict[ProcessId, tuple[Value, Round]] = {}
    # Messages awaiting delivery: (receiver, delivery_round) -> list.
    pending: dict[tuple[ProcessId, Round], list[Message]] = {}
    records: list[RoundRecord] = []

    for k in range(1, horizon + 1):
        sent: dict[ProcessId, object | None] = {}
        delivered: dict[ProcessId, tuple[Message, ...]] = {}
        decided_this_round: dict[ProcessId, Value] = {}
        halted_this_round: set[ProcessId] = set()

        # --- send phase ---------------------------------------------------
        for pid in range(n):
            if pid in halted or not schedule.sends_in_round(pid, k):
                sent[pid] = None
                continue
            payload = automata[pid].payload(k)
            if payload is None:
                payload = DUMMY
            sent[pid] = payload
            for receiver in range(n):
                delivery = schedule.delivery_round(pid, receiver, k)
                if delivery is None:
                    continue
                if receiver in halted or not schedule.completes_round(
                    receiver, delivery
                ):
                    # The receiver leaves the computation before the
                    # delivery round, so the message can never be received;
                    # buffering it would leak until the end of the run.
                    continue
                # The reference kernel is the equivalence oracle and is
                # kept on the original, obviously-correct idioms on
                # purpose — it must share no shortcuts with the fast
                # path it checks.
                message = Message(
                    sent_round=k, sender=pid, receiver=receiver,
                    payload=payload,
                )
                pending.setdefault((receiver, delivery), []).append(message)

        # --- receive phase --------------------------------------------------
        for pid in range(n):
            if pid in halted or not schedule.completes_round(pid, k):
                pending.pop((pid, k), None)
                continue
            inbox = sort_delivery(pending.pop((pid, k), []))
            automaton = automata[pid]
            automaton.deliver_view(
                k, RoundView.from_messages(k, pid, n, inbox)
            )
            delivered[pid] = inbox
            message_count += len(inbox)
            if automaton.decided and pid not in decided_at:
                decided_at[pid] = (automaton.decision, k)
                decided_this_round[pid] = automaton.decision
            if automaton.halted:
                halted_this_round.add(pid)

        halted.update(halted_this_round)
        for pid in halted_this_round:
            halted_rounds[pid] = k
        if halted_this_round:
            # Purge messages already buffered for processes that halted
            # this round; they would otherwise sit in ``pending`` until
            # their delivery round only to be dropped there.
            for key in [
                key for key in pending if key[0] in halted_this_round
            ]:
                del pending[key]
        records.append(
            RoundRecord(
                round=k,
                sent=sent,
                delivered=delivered,
                decided=decided_this_round,
                crashed=schedule.crashed_in(k),
                # Oracle idiom, uninterned on purpose (see above).
                halted=frozenset(halted_this_round),
            )
        )

        if stop_when_quiescent:
            still_running = [
                pid
                for pid in range(n)
                if pid not in halted and schedule.completes_round(pid, k)
            ]
            if not still_running:
                break

    return Trace(
        schedule=schedule,
        proposals=proposals,
        rounds_executed=len(records),
        decisions=decided_at,
        halted_rounds=halted_rounds,
        messages=message_count,
        rounds=tuple(records),
    )
