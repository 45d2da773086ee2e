"""The reference kernel and delivery rule: the oracles for the compiled plan.

The paper's delivery rule (Section 1.2) — which round-k messages a
process receives in round k — is implemented in ``src/`` only by the
compiled plan (:mod:`repro.sim.compiled`).  The functions below state
it again one (sender, receiver, round) query at a time over a
:class:`~repro.model.schedule.Schedule`, straight from the schedule's
crash, delay and loss tables.  The tests hold the plan, the kernel, the
ES validator and the detector simulation to them.

:func:`execute_reference` is the original query-at-a-time round loop.  It
asks these queries about every (sender, receiver, round) triple, builds
each :class:`~repro.model.messages.Message` with the dataclass
constructor, sorts each inbox and wraps it in a view itself, so it
shares neither the compiled plan nor the lazy buckets with
:func:`repro.sim.kernel.execute`.  Tests and ``benchmarks/bench_kernel.py``
import it from here.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algorithms.base import Automaton
from repro.model.messages import DUMMY, Message
from repro.model.schedule import Schedule
from repro.sim.kernel import _check_run
from repro.sim.trace import RoundRecord, Trace
from repro.sim.view import RoundView
from repro.types import ProcessId, Round, Value


def sends_in_round(schedule: Schedule, pid: ProcessId, k: Round) -> bool:
    """True iff *pid* is still up at the start of round k (so it sends)."""
    crash = schedule.crash_round(pid)
    return crash is None or crash >= k


def completes_round(schedule: Schedule, pid: ProcessId, k: Round) -> bool:
    """True iff *pid* survives the whole of round k."""
    crash = schedule.crash_round(pid)
    return crash is None or crash > k


def crashed_in(schedule: Schedule, k: Round) -> frozenset[ProcessId]:
    """The processes crashing in round k."""
    return frozenset(
        pid for pid, spec in schedule.crashes.items() if spec.round == k
    )


def delivery_round(
    schedule: Schedule, sender: ProcessId, receiver: ProcessId, k: Round
) -> Round | None:
    """The round in which the (sender → receiver, round k) message arrives.

    ``None`` if the message is lost or was never sent (the sender crashed
    in an earlier round).  Self-delivery is immediate: a process
    "receives" its own round-k message in round k.
    """
    if not sends_in_round(schedule, sender, k):
        return None
    if sender == receiver:
        return k
    spec = schedule.crashes.get(sender)
    if spec is not None and spec.round == k:
        if receiver in spec.delivered_same_round:
            return k
        return dict(spec.delayed).get(receiver)
    if (sender, receiver, k) in schedule.losses:
        return None
    return schedule.delays.get((sender, receiver, k), k)


def deliveries_to(
    schedule: Schedule, receiver: ProcessId, k: Round
) -> list[tuple[ProcessId, Round]]:
    """All ``(sender, sent_round)`` pairs arriving at *receiver* in round k."""
    return [
        (sender, sent)
        for sender in range(schedule.n)
        for sent in range(1, k + 1)
        if delivery_round(schedule, sender, receiver, sent) == k
    ]


def same_round_senders(
    schedule: Schedule, receiver: ProcessId, k: Round
) -> frozenset[ProcessId]:
    """Senders whose round-k message reaches *receiver* within round k.

    Includes the receiver itself (self-delivery is immediate).
    """
    return frozenset(
        sender
        for sender in range(schedule.n)
        if delivery_round(schedule, sender, receiver, k) == k
    )


def suspected_by(
    schedule: Schedule, receiver: ProcessId, k: Round
) -> frozenset[ProcessId]:
    """Processes *receiver* suspects in round k: no round-k message arrived.

    The paper's definition, and the simulated failure-detector output of
    Section 4: p_i suspects p_j in round k iff p_i does not receive the
    round-k message from p_j in round k.
    """
    return frozenset(range(schedule.n)) - same_round_senders(
        schedule, receiver, k
    )


def is_synchronous_round(schedule: Schedule, k: Round) -> bool:
    """True iff every round-k message from a non-crashing sender arrives in round k.

    Messages from a process crashing in round k are unconstrained
    (paper, footnote 5).  Messages to receivers that do not complete
    round k are ignored.
    """
    return all(
        delivery_round(schedule, sender, receiver, k) == k
        for sender in range(schedule.n)
        if sends_in_round(schedule, sender, k)
        and schedule.crash_round(sender) != k
        for receiver in range(schedule.n)
        if receiver != sender and completes_round(schedule, receiver, k)
    )


def sync_from_by_scan(schedule: Schedule) -> Round:
    """:meth:`Schedule.sync_from` by a scan of every round's messages."""
    first_bad = 0
    for k in range(1, schedule.horizon + 1):
        if not is_synchronous_round(schedule, k):
            first_bad = k
    return first_bad + 1


def delay_rows_of(
    delays: Mapping[tuple[ProcessId, ProcessId, Round], Round],
) -> dict[tuple[Round, ProcessId], dict[Round, int]]:
    """``Schedule.delay_rows`` for a per-message ``{(sender, receiver,
    sent_round): delivery}`` table, for schedules built directly."""
    rows: dict[tuple[Round, ProcessId], dict[Round, int]] = {}
    for (sender, receiver, sent), delivery in delays.items():
        row = rows.setdefault((sent, receiver), {})
        row[delivery] = row.get(delivery, 0) | 1 << sender
    return rows


def delayed_pairs(
    row: Sequence[tuple[Round, int]],
) -> tuple[tuple[Round, ProcessId], ...]:
    """A plan's delayed row, ``(sent_round, sender_mask)`` entries, as
    the ``(sent_round, sender)`` pairs it stands for, in plan order."""
    return tuple(
        (sent, sender)
        for sent, senders in row
        for sender in range(senders.bit_length())
        if senders >> sender & 1
    )


def sort_delivery(messages: list[Message]) -> tuple[Message, ...]:
    """Canonical delivery order: by sending round, then sender id.

    Payloads are excluded from the ordering (dataclass ``compare=False``);
    a (sent_round, sender, receiver) triple uniquely identifies a message
    within one run, so the order is total in practice.
    """
    return tuple(sorted(messages))


def execute_reference(
    automata: Sequence[Automaton],
    schedule: Schedule,
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
    horizon = schedule.horizon

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
            if pid in halted or not sends_in_round(schedule, pid, k):
                sent[pid] = None
                continue
            payload = automata[pid].payload(k)
            if payload is None:
                payload = DUMMY
            sent[pid] = payload
            for receiver in range(n):
                delivery = delivery_round(schedule, pid, receiver, k)
                if delivery is None:
                    continue
                if receiver in halted or not completes_round(
                    schedule, receiver, delivery
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
            if pid in halted or not completes_round(schedule, pid, k):
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
                crashed=crashed_in(schedule, k),
                # Oracle idiom, uninterned on purpose (see above).
                halted=frozenset(halted_this_round),
            )
        )

        still_running = [
            pid
            for pid in range(n)
            if pid not in halted and completes_round(schedule, pid, k)
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
