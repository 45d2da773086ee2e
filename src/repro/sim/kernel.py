"""The deterministic round-based execution kernel.

:func:`execute` runs one automaton per process against an adversary
:class:`~repro.model.schedule.Schedule` and returns the run's
:class:`~repro.sim.trace.Trace` — with per-round records
(``trace="full"``) or without them (``trace="lean"``).

Round structure (paper, Section 1.2): each round k has a send phase — every
non-crashed, non-halted process broadcasts one payload, timestamped k — and
a receive phase — every process that completes the round receives the
round-k messages the schedule delivers in round k, plus any earlier-round
messages whose delayed delivery lands in round k.  A process that crashes
in round k sends to the schedule-chosen subset and never executes the
receive phase.

Execution runs on a compiled plan (:mod:`repro.sim.compiled`): the
schedule's send/completion/delivery structure is resolved once per
schedule, so the per-round hot loop touches only flat tuples — no
per-message schedule lookups.
Delivery goes through :class:`~repro.sim.view.RoundView`: the kernel
builds each receiver's structured inbox (current-round items bucketed
by tag, delayed messages separate, present-sender mask) straight from
the plan — current buckets shared across receivers that heard the same
senders, delayed buckets across receivers with equal delayed rows — and
drives the automata through
:meth:`~repro.algorithms.base.Automaton.deliver_view`, the one receive
hook.  The exception is a round the run's plane claims
(:mod:`repro.sim.phase1_plane`): while no process has decided, a round
that every automaton class declares to the plane (Phase 1's
``compute()``, A_{t+2}'s round t + 2, a Chandra–Toueg round) is sent by
the plane from the senders' states, and its receive phase runs for all
receivers at once from the plan's masks — no automaton sends, no view
is built, no hook is called.  The claim returns the receivers that
decided, which the kernel records as the per-view path does.  One loop
serves both trace modes: full mode additionally stores each receiver's flat
inbox (claimed rounds included) and appends a per-round record.  A run
ends at the schedule's horizon, or earlier once every process has
crashed or halted (its outcome can no longer change).
The original query-at-a-time loop lives on with the tests
(``tests/kernel_oracle.py``), calling the hook for every receiver; the
equivalence tests and the kernel microbenchmark hold this kernel
byte-identical to it.

The kernel is *model-agnostic*: it executes any schedule.  Whether the
schedule obeys SCS or ES is checked separately by the validators in
:mod:`repro.model.scs` and :mod:`repro.model.es`.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import AlgorithmFactory, Automaton
from repro.errors import SimulationError
from repro.model.messages import DUMMY, Message
from repro.model.schedule import Schedule
from repro.sim.bitset import interned_set
from repro.sim.compiled import CompiledSchedule, compile_schedule
from repro.sim.phase1_plane import Phase1Plane, build_run_plane
from repro.sim.trace import RoundRecord, Trace
from repro.sim.view import (
    CurrentCell,
    RoundView,
    SendTable,
    build_delayed_buckets,
)
from repro.types import ProcessId, Round, Value

#: The supported ``trace=`` modes, in documentation order.
TRACE_MODES = ("full", "lean")

#: Payload-grid sentinel: "this process did not send in this round".
#: (``None`` cannot serve — the kernel substitutes DUMMY for it, and no
#: payload may legitimately be the sentinel itself.)
_NOT_SENT = object()


def _check_run(automata: Sequence[Automaton], schedule: Schedule) -> None:
    if schedule.horizon < 0:
        raise SimulationError(
            f"schedule horizon {schedule.horizon} is negative"
        )
    n = schedule.n
    if len(automata) != n:
        raise SimulationError(
            f"schedule is for {n} processes, got {len(automata)} automata"
        )
    for pid, automaton in enumerate(automata):
        if automaton.pid != pid:
            raise SimulationError(
                f"automaton at index {pid} reports pid {automaton.pid}"
            )


def execute(
    automata: Sequence[Automaton],
    schedule: Schedule,
    *,
    trace: str = "full",
) -> Trace:
    """Execute one run and return its trace.

    Args:
        automata: one automaton per process, index = process id.
        schedule: the adversary schedule; its ``horizon`` bounds the run,
            which stops early once every process has crashed or halted.
        trace: ``"full"`` records every round into the trace's
            ``rounds``; ``"lean"`` skips per-round records and leaves
            ``rounds`` ``None``.  Both modes drive the automata
            identically and fill in every other field, so decisions and
            metrics never depend on the choice.

    Returns:
        The run's trace.  The kernel never raises on non-termination —
        a run that fails to decide simply ends at the horizon with missing
        decisions, which the analysis layer reports.  A negative horizon
        raises :class:`~repro.errors.SimulationError`.
    """
    _check_run(automata, schedule)
    if trace not in TRACE_MODES:
        raise SimulationError(
            f"unknown trace mode {trace!r}; known: " + ", ".join(TRACE_MODES)
        )
    plan = compile_schedule(schedule)
    proposals = tuple(a.proposal for a in automata)
    # The run-level batched-delivery plane (None unless the automata
    # share plane rounds — see repro.sim.phase1_plane).  The plane is
    # active only between send/begin_round and end_round, so automata
    # driven outside this kernel (the reference oracle, direct
    # deliver_view calls) always take their per-automaton path.
    plane = build_run_plane(automata)
    return _run(automata, schedule, plan, proposals, plane, trace == "full")


def _run(
    automata: Sequence[Automaton],
    schedule: Schedule,
    plan: CompiledSchedule,
    proposals: tuple[Value, ...],
    plane: Phase1Plane | None,
    full: bool,
) -> Trace:
    """The round loop behind :func:`execute`, for both trace modes.

    Both modes keep the trace's counters (rounds executed, messages
    delivered, halt rounds) and drive the automata identically; *full*
    additionally stores each receiver's flat inbox and appends one
    :class:`~repro.sim.trace.RoundRecord` per round.
    """
    n = schedule.n
    horizon = schedule.horizon
    halted: set[ProcessId] = set()
    halted_rounds: dict[ProcessId, Round] = {}
    decided_at: dict[ProcessId, tuple[Value, Round]] = {}
    # payloads[pid][k] is what pid broadcast in round k (or _NOT_SENT).
    payloads = [[_NOT_SENT] * (horizon + 1) for _ in range(n)]
    records: list[RoundRecord] = []
    message_count = 0
    rounds_executed = 0
    # Preallocated per-run buffers, reset (not reallocated) per round.
    table = SendTable(n)
    shared_current: dict[int, CurrentCell] = {}
    shared_delayed: dict[tuple, tuple] = {}

    for k in range(1, horizon + 1):
        rounds_executed = k

        # --- send phase ---------------------------------------------------
        # Until somebody decides there is no DECIDE payload, current or
        # delayed, and nobody has halted (halting follows deciding), so a
        # plane round is the same fold for every completer: the plane
        # sends it and claims it whole.
        senders = plan.senders[k]
        claimed = not decided_at and plane is not None and (
            plane.send(k, senders, payloads)
        )
        table.reset()
        record_send = table.record
        if not claimed:
            for pid in senders:
                if pid in halted:
                    continue
                payload = automata[pid].payload(k)
                if payload is None:
                    payload = DUMMY
                else:
                    hash(payload)  # fail fast on unhashable payloads
                payloads[pid][k] = payload
                record_send(pid, payload)
        elif full:
            # Only for the receivers' stored inboxes.
            for pid in senders:
                record_send(pid, payloads[pid][k])

        # --- receive phase --------------------------------------------------
        # Message objects are built only for the full trace's records:
        # automata consume the shared buckets directly, so the per-round
        # delivery cost is one bucket build per distinct arrived-sender
        # mask (and delayed row) plus the automaton logic itself.
        delivered: dict[ProcessId, tuple[Message, ...]] = {}
        decided_now: dict[ProcessId, Value] = {}
        halted_now = 0
        shared_current.clear()
        shared_delayed.clear()
        sender_mask = table.sender_mask
        cmasks = plan.current_masks[k]
        delayed_plan = plan.delayed_inboxes[k]
        if plane is not None:
            if claimed:
                delivered_now, deciders = plane.claim(
                    k, plan.completers[k], cmasks
                )
                message_count += delivered_now
                if deciders:
                    for pid in plan.completers[k]:
                        if deciders >> pid & 1:
                            decision = automata[pid]._decision
                            decided_at[pid] = (decision, k)
                            decided_now[pid] = decision
                if any(delayed_plan):
                    # Only completers have delayed rows.
                    message_count += sum(
                        senders.bit_count()
                        for row in delayed_plan for _sent, senders in row
                    )
            else:
                # Post-send, pre-receive: the senders' refreshed rows
                # are exactly the Halt sets this round's payloads carry.
                plane.begin_round(k, senders, payloads)
        if full or not claimed:
            for pid in plan.completers[k]:
                if pid in halted:
                    continue
                # Buckets are shared by every receiver that heard the
                # same senders (or has the same delayed row) this round.
                heard = cmasks[pid] & sender_mask
                cell = shared_current.get(heard)
                if cell is None:
                    cell = shared_current[heard] = CurrentCell(table, heard)
                row = delayed_plan[pid]
                dly = shared_delayed.get(row)
                if dly is None:
                    dly = shared_delayed[row] = build_delayed_buckets(
                        row, payloads, _NOT_SENT
                    )
                view = RoundView.lazy(k, pid, n, dly[0], dly[1], cell)
                if full:
                    delivered[pid] = view.messages
                    if claimed:
                        continue
                automaton = automata[pid]
                automaton.deliver_view(k, view)
                message_count += heard.bit_count() + len(dly[0])
                decision = automaton._decision
                if decision is not None and pid not in decided_at:
                    decided_at[pid] = (decision, k)
                    decided_now[pid] = decision
                if automaton._halted:
                    halted.add(pid)
                    halted_rounds[pid] = k
                    halted_now |= 1 << pid
        if plane is not None:
            plane.end_round()

        if full:
            records.append(
                RoundRecord(
                    round=k,
                    sent={
                        pid: None if row[k] is _NOT_SENT else row[k]
                        for pid, row in enumerate(payloads)
                    },
                    delivered=delivered,
                    decided=decided_now,
                    crashed=plan.crashed[k],
                    halted=interned_set(halted_now),
                )
            )

        if all(pid in halted for pid in plan.completers[k]):
            break

    return Trace(
        schedule=schedule,
        proposals=proposals,
        rounds_executed=rounds_executed,
        decisions=decided_at,
        halted_rounds=halted_rounds,
        messages=message_count,
        rounds=tuple(records) if full else None,
    )


def run_algorithm(
    factory: AlgorithmFactory,
    schedule: Schedule,
    proposals: Sequence[Value],
    *,
    trace: str = "full",
) -> Trace:
    """Convenience wrapper: build automata from *factory* and execute.

    Equivalent to ``execute(make_automata(factory, n, t, proposals),
    schedule)``; exists because nearly every test, bench and example starts
    a run this way.  ``trace`` selects the trace mode (see :func:`execute`).
    """
    from repro.algorithms.base import make_automata

    automata = make_automata(factory, schedule.n, schedule.t, proposals)
    return execute(automata, schedule, trace=trace)
