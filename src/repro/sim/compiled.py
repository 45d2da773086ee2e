"""Compiled adversary schedules: the kernel's pre-resolved execution plan.

A declarative :class:`~repro.model.schedule.Schedule` holds dict-backed
crash/delay/loss tables.  Resolving them one (sender, receiver, round)
triple at a time — the point queries the tests keep as the oracle in
``tests/kernel_oracle.py`` — costs O(n²) lookups *per round*, which is
exactly the bookkeeping that made large-n sweeps impractical.

:func:`compile_schedule` performs that resolution **once per schedule**
and freezes the answers into a :class:`CompiledSchedule`:

* ``senders[k]`` — the processes that send in round k (still up at the
  start of the round);
* ``completers[k]`` — the processes that survive the whole of round k;
* ``current_masks[k][receiver]`` — the senders whose round-k message
  arrives in round k, as an int bitmask (bit ``i`` for process ``i``).
  The kernel ANDs it with the round's broadcaster mask to get the
  receiver's arrived-sender mask in O(1), and that mask is also the key
  under which receivers share one lazily built current-round bucket set
  (:class:`~repro.sim.view.CurrentCell`);
* ``delayed_inboxes[k][receiver]`` — the earlier-round messages
  delivered in round k, as ``(sent_round, sender_mask)`` entries sorted
  by sent round: one entry per sent round, not one per message (an
  n = 100 ES plan holds about 13,500 entries for 78,780 delayed
  messages).  The kernel expands a mask into senders only when the
  receiver reads the row.  The per-message age test is resolved at
  compile time, and messages to receivers that leave the computation
  before the delivery round are already filtered out, so the kernel
  never buffers anything it would later drop;
* ``crashed[k]`` — the processes crashing in round k (trace metadata).

The plan captures everything the *schedule* contributes to a run; only
the dynamic part — which processes have halted, and what payloads the
automata produce — remains for the kernel's hot loop, whose per-round
cost drops from O(n²) schedule method calls to plain list indexing.

Compilation reads the schedule's *exceptions*, never its n² · horizon
message triples.  By default a receiver completing round k hears every
sender that does not crash in round k; only the crash specs'
same-round deliveries, ``losses`` and ``delay_rows`` deviate from
that, and only delayed messages land in ``delayed_inboxes``.  A delay
row is merged mask by mask, never message by message, so a plan costs
O(n · horizon + |crash specs| + |losses| + |delay rows|) to build, and
rows are shared: every exception-free round with the same completers
reuses one mask row.  The plan is memoized on the schedule instance,
so a grid running A algorithms against one schedule compiles once and
executes A times.
The plan is also the only implementation of the paper's delivery rule
in ``src/``: the ES validator (:func:`repro.model.es.check_es`) and the
Section-4 detector simulation
(:func:`repro.detectors.simulation.simulate_from_schedule`) read
``completers`` and ``current_masks`` too.
The memo is stripped from pickles
(:meth:`~repro.model.schedule.Schedule.__getstate__`); the process pool
ships all of a schedule's cases in one task
(:class:`~repro.engine.executors.ProcessExecutor`), so each worker
compiles a schedule at most once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.schedule import Schedule, crashed_by_round
from repro.sim.bitset import full_mask, interned_set, mask_of
from repro.types import ProcessId, Round

__all__ = ["CompiledSchedule", "compile_schedule"]

#: The interned empty crash set — most rounds crash nobody, and every
#: such round in every compiled plan shares this one object.
_EMPTY_PIDS: frozenset[ProcessId] = frozenset()


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule's pre-resolved, per-round execution plan.

    All per-round sequences are indexed directly by the 1-based round
    number (index 0 is an unused placeholder), matching the kernel's
    loop variable.

    Attributes:
        schedule: the schedule this plan was compiled from.
        n: number of processes.
        horizon: the compiled round horizon (``schedule.horizon``).
        senders: per round, the processes that send (ascending pids).
        completers: per round, the processes that complete the round's
            receive phase per the schedule (ascending pids; dynamic
            halting is the kernel's concern).
        delayed_inboxes: per round and receiver, the earlier-round
            messages delivered to that receiver in that round, as
            ``(sent_round, sender_mask)`` entries sorted by sent round
            (each sent round once, its mask non-zero), already filtered
            of messages whose receiver leaves the computation before
            delivery.  Walking each mask from its low bit up gives the
            canonical ``(sent_round, sender)`` order.
        current_masks: per round and receiver, the senders whose
            round-k message arrives in round k, as an int bitmask.
        crashed: per round, the processes crashing in that round.

    Rounds in which nothing crashes *share* their sender/completer rows
    with the previous round, and exception-free rounds with the same
    completers share one ``current_masks`` row — in a failure-free
    schedule the whole plan holds one sender tuple and one mask row,
    not ``horizon`` of them.
    """

    schedule: Schedule
    n: int
    horizon: Round
    senders: tuple[tuple[ProcessId, ...], ...]
    completers: tuple[tuple[ProcessId, ...], ...]
    delayed_inboxes: tuple[tuple[tuple[tuple[Round, int], ...], ...], ...]
    current_masks: tuple[tuple[int, ...], ...]
    crashed: tuple[frozenset[ProcessId], ...]


def _add_bits(
    table: dict[Round, dict[ProcessId, int]],
    k: Round,
    receiver: ProcessId,
    senders: int,
) -> None:
    row = table.setdefault(k, {})
    row[receiver] = row.get(receiver, 0) | senders


def _compile(schedule: Schedule) -> CompiledSchedule:
    n = schedule.n
    horizon = schedule.horizon
    never = horizon + 1
    crash_at = [never] * n
    # Crash rounds bucketed once: rounds without an entry reuse the
    # previous round's sender/completer rows wholesale instead of
    # rebuilding n-element tuples per round.
    crashes_in: dict[Round, list[ProcessId]] = {}
    for pid, spec in schedule.crashes.items():
        if spec.round <= horizon:
            crash_at[pid] = spec.round
            crashes_in.setdefault(spec.round, []).append(pid)

    # The exceptions to the default round, bucketed by round and
    # receiver: crash-round messages that still arrive in the crash
    # round (adds), lost or delayed messages from senders that send in
    # the round and do not crash in it (removes), and the sender mask
    # of each sent round a receiver gets in a later round (late).  Loss
    # and delay entries that the delivery rule overrides are skipped:
    # self-deliveries and a sender's crash round or later.
    adds: dict[Round, dict[ProcessId, int]] = {}
    removes: dict[Round, dict[ProcessId, int]] = {}
    late: dict[Round, dict[ProcessId, dict[Round, int]]] = {}

    def arrives_late(
        senders: int, receiver: ProcessId, sent: Round, delivery: Round
    ) -> None:
        # A receiver that leaves the computation before the delivery
        # round never receives the messages.
        if senders and sent < delivery <= horizon and (
            crash_at[receiver] > delivery
        ):
            row = late.setdefault(delivery, {}).setdefault(receiver, {})
            row[sent] = row.get(sent, 0) | senders

    for pid, spec in schedule.crashes.items():
        k = spec.round
        if k <= horizon:
            for receiver in spec.delivered_same_round:
                _add_bits(adds, k, receiver, 1 << pid)
            for receiver, delivery in spec.delayed:
                arrives_late(1 << pid, receiver, k, delivery)
    for sender, receiver, k in schedule.losses:
        if sender != receiver and 1 <= k < crash_at[sender]:
            _add_bits(removes, k, receiver, 1 << sender)
    gone = crashed_by_round(schedule.crashes, horizon)
    for (k, receiver), by_delivery in schedule.delay_rows.items():
        if not 1 <= k <= horizon:
            continue
        kept = ~(gone[k] | 1 << receiver)
        # Until this row, the only one of (k, receiver), adds its moved
        # senders, the (k, receiver) removes are exactly its losses.
        lost = removes.get(k, {}).get(receiver, 0)
        moved = 0
        for delivery, delayed in by_delivery.items():
            delayed &= kept
            if delivery != k:
                moved |= delayed
                arrives_late(delayed & ~lost, receiver, k, delivery)
        if moved:
            _add_bits(removes, k, receiver, moved)

    senders: list[tuple[ProcessId, ...]] = [()]
    completers: list[tuple[ProcessId, ...]] = [()]
    crashed: list[frozenset[ProcessId]] = [_EMPTY_PIDS]
    delayed_inboxes: list[tuple] = [()]
    current_masks: list[tuple[int, ...]] = [()]

    # One mask row per completer set for rounds without exceptions: a
    # failure-free plan holds a single row.
    plain_rows: dict[int, tuple[int, ...]] = {}
    no_delayed = ((),) * n

    live = tuple(range(n))
    live_mask = full_mask(n)
    for k in range(1, horizon + 1):
        crashing = crashes_in.get(k)
        if crashing is None:
            round_completers = live
            completer_mask = live_mask
            crashed.append(_EMPTY_PIDS)
        else:
            crashed_mask = mask_of(crashing)
            round_completers = tuple(
                pid for pid in live if crash_at[pid] > k
            )
            completer_mask = live_mask & ~crashed_mask
            crashed.append(interned_set(crashed_mask))
        senders.append(live)
        completers.append(round_completers)
        live = round_completers
        live_mask = completer_mask

        # A completing receiver hears every sender that does not crash
        # in round k, give or take its exceptions; the rest hear nothing.
        round_adds = adds.get(k, {})
        round_removes = removes.get(k, {})
        exceptional = bool(round_adds or round_removes)
        row = None if exceptional else plain_rows.get(completer_mask)
        if row is None:
            masks = [0] * n
            for pid in round_completers:
                masks[pid] = completer_mask
            for receiver in (*round_removes, *round_adds):
                if crash_at[receiver] > k:
                    masks[receiver] = (
                        completer_mask & ~round_removes.get(receiver, 0)
                    ) | round_adds.get(receiver, 0)
            row = tuple(masks)
            if not exceptional:
                plain_rows[completer_mask] = row
        current_masks.append(row)

        arrivals = late.get(k)
        if arrivals is None:
            delayed_inboxes.append(no_delayed)
        else:
            round_delayed: list[tuple] = [()] * n
            for receiver, by_sent in arrivals.items():
                round_delayed[receiver] = tuple(sorted(by_sent.items()))
            delayed_inboxes.append(tuple(round_delayed))

    return CompiledSchedule(
        schedule=schedule,
        n=n,
        horizon=horizon,
        senders=tuple(senders),
        completers=tuple(completers),
        delayed_inboxes=tuple(delayed_inboxes),
        current_masks=tuple(current_masks),
        crashed=tuple(crashed),
    )


def compile_schedule(schedule: Schedule) -> CompiledSchedule:
    """The compiled execution plan for *schedule* (memoized per instance).

    Schedules are immutable, so the plan is cached on the instance the
    same way as :meth:`~repro.model.schedule.Schedule.digest` — shared
    across every algorithm a grid runs against the schedule, and never
    pickled (a pool worker compiles each schedule of its tasks once).
    """
    cached = schedule.__dict__.get("_compiled_cache")
    if cached is not None:
        return cached
    plan = _compile(schedule)
    object.__setattr__(schedule, "_compiled_cache", plan)
    return plan
