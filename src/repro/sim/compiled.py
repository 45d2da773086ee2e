"""Compiled adversary schedules: the kernel's pre-resolved execution plan.

A declarative :class:`~repro.model.schedule.Schedule` answers point
queries — ``sends_in_round``, ``completes_round``, ``delivery_round`` —
each a method call over dict-backed crash/delay/loss tables.  The
execution kernel used to issue O(n²) such calls *per round*, which is
exactly the bookkeeping that made large-n sweeps impractical.

:func:`compile_schedule` performs that resolution **once per schedule**
and freezes the answers into a :class:`CompiledSchedule`:

* ``senders[k]`` — the processes that send in round k (still up at the
  start of the round);
* ``completers[k]`` — the processes that survive the whole of round k;
* ``delayed_inboxes[k][receiver]`` / ``current_senders[k][receiver]`` —
  the delivery plan, pre-bucketed for
  :class:`~repro.sim.view.RoundView` construction: the canonically
  ordered earlier-round ``(sent_round, sender)`` pairs, and the
  ascending senders whose round-k message arrives in round k (their
  ``sent_round`` is implied) — the per-message age test is resolved at
  compile time.  Messages to receivers that leave the computation
  before the delivery round are already filtered out, so the kernel
  never buffers anything it would later drop.  The merged flat form is
  available as the derived ``inboxes`` property (diagnostics/tests
  only — storing it would double the plan);
* ``current_groups[k]`` / ``delayed_groups[k]`` — for each receiver,
  the lowest receiver id with a byte-identical current-round
  (respectively delayed) round-k plan.  Payload availability is global
  (a sender either broadcast in a round or did not), so receivers in
  one group see identical ``(sender, payload)`` buckets and the kernel
  builds them once per group.  The two keys are independent: a delayed
  delivery only desynchronizes a receiver's *delayed* bucket, so in the
  common sparse-delay rounds nearly every receiver still shares the one
  expensive current-round bucket set — in an all-to-all synchronous
  round, the partitioning work is paid once per *round*;
* ``crashed[k]`` — the processes crashing in round k (trace metadata).

The plan captures everything the *schedule* contributes to a run; only
the dynamic part — which processes have halted, and what payloads the
automata produce — remains for the kernel's hot loop, whose per-round
cost drops from O(n²) schedule method calls to plain list indexing.

Compilation reads the schedule's *exceptions*, never its n² · horizon
message triples.  By default a receiver completing round k hears every
sender that does not crash in round k (``completer_masks[k]``); only the
crash specs' same-round deliveries, ``losses`` and ``delays`` deviate
from that, and only delayed messages land in ``delayed_inboxes``.  So a
plan costs O(n · horizon + |exceptions|) to build, and rows are shared:
one sender tuple per distinct mask, one row set for every exception-free
round with the same completers.  The plan is memoized on the schedule
instance, so a grid running A algorithms against one schedule compiles
once and executes A times.  The memo is stripped from pickles
(:meth:`~repro.model.schedule.Schedule.__getstate__`); the process pool
ships all of a schedule's cases in one task
(:class:`~repro.engine.executors.ProcessExecutor`), so each worker
compiles a schedule at most once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.model.schedule import Schedule
from repro.sim.bitset import full_mask, interned_set, iter_bits, mask_of
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
            ``(sent_round, sender)`` pairs delivered to that receiver
            in that round, in canonical order and already filtered of
            messages whose receiver leaves the computation before
            delivery.
        current_senders: the current-round half of the delivery plan —
            per round and receiver, the ascending senders whose round-k
            message arrives in round k.
        current_groups: per round and receiver, the lowest receiver id
            whose ``current_senders`` round plan is identical — the key
            under which the kernel shares one current-round
            :class:`~repro.sim.view.RoundView` bucket set.
        current_masks: ``current_senders`` as per-receiver int bitmasks —
            what lets the kernel hand every receiver its arrived-sender
            mask (``plan mask & round's broadcaster mask``) in O(1)
            without materializing the round's ``(sender, payload)``
            buckets (they build lazily, once per sharing group, on first
            structured access).
        delayed_groups: the same sharing key for the delayed plan.
        crashed: per round, the processes crashing in that round.
        sender_masks: ``senders`` as per-round int bitmasks (bit ``i``
            set iff process ``i`` sends in the round).
        completer_masks: ``completers`` as per-round bitmasks.
        crashed_masks: ``crashed`` as per-round bitmasks.

    The tuple rows and the mask rows describe the same sets; the masks
    are the data plane's working representation (single-word complement
    and membership), the tuples/frozensets the iteration-order-carrying
    boundary one.  Rounds in which nothing crashes *share* their
    sender/completer rows with the previous round — in a failure-free
    schedule the whole plan holds one sender tuple, not ``horizon`` of
    them.
    """

    schedule: Schedule
    n: int
    horizon: Round
    senders: tuple[tuple[ProcessId, ...], ...]
    completers: tuple[tuple[ProcessId, ...], ...]
    delayed_inboxes: tuple[
        tuple[tuple[tuple[Round, ProcessId], ...], ...], ...
    ]
    current_senders: tuple[tuple[tuple[ProcessId, ...], ...], ...]
    current_groups: tuple[tuple[ProcessId, ...], ...]
    current_masks: tuple[tuple[int, ...], ...]
    delayed_groups: tuple[tuple[ProcessId, ...], ...]
    crashed: tuple[frozenset[ProcessId], ...]
    sender_masks: tuple[int, ...]
    completer_masks: tuple[int, ...]
    crashed_masks: tuple[int, ...]

    @cached_property
    def inboxes(
        self,
    ) -> tuple[tuple[tuple[tuple[Round, ProcessId], ...], ...], ...]:
        """The merged flat delivery plan: per round and receiver, the
        canonically ordered ``(sent_round, sender)`` pairs.

        Derived on demand from the split halves the kernel actually
        reads — storing it eagerly would give every memoized plan one
        merged tuple per receiver per round, O(n² · horizon), where the
        split halves share rows, for a structure only diagnostics and
        tests consume.
        """
        return tuple(
            tuple(
                delayed + tuple((k, sender) for sender in current)
                for delayed, current in zip(per_delayed, per_current)
            )
            for k, (per_delayed, per_current) in enumerate(
                zip(self.delayed_inboxes, self.current_senders)
            )
        )


def _set_bit(
    table: dict[Round, dict[ProcessId, int]],
    k: Round,
    receiver: ProcessId,
    sender: ProcessId,
) -> None:
    row = table.setdefault(k, {})
    row[receiver] = row.get(receiver, 0) | 1 << sender


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
    # the round and do not crash in it (removes), and the messages each
    # receiver gets in a later round (late).  Loss and delay entries
    # that Schedule.delivery_round overrides are skipped exactly as it
    # skips them: self-deliveries and a sender's crash round or later.
    adds: dict[Round, dict[ProcessId, int]] = {}
    removes: dict[Round, dict[ProcessId, int]] = {}
    late: dict[Round, dict[ProcessId, list[tuple[Round, ProcessId]]]] = {}

    def arrives_late(
        sender: ProcessId, receiver: ProcessId, sent: Round, delivery: Round
    ) -> None:
        # A receiver that leaves the computation before the delivery
        # round never receives the message.
        if sent < delivery <= horizon and crash_at[receiver] > delivery:
            late.setdefault(delivery, {}).setdefault(receiver, []).append(
                (sent, sender)
            )

    for pid, spec in schedule.crashes.items():
        k = spec.round
        if k <= horizon:
            for receiver in spec.delivered_same_round:
                _set_bit(adds, k, receiver, pid)
            for receiver, delivery in spec.delayed:
                arrives_late(pid, receiver, k, delivery)
    losses = schedule.losses
    for sender, receiver, k in losses:
        if sender != receiver and 1 <= k < crash_at[sender]:
            _set_bit(removes, k, receiver, sender)
    for (sender, receiver, k), delivery in schedule.delays.items():
        if sender != receiver and 1 <= k < crash_at[sender] and delivery != k:
            _set_bit(removes, k, receiver, sender)
            if (sender, receiver, k) not in losses:
                arrives_late(sender, receiver, k, delivery)

    senders: list[tuple[ProcessId, ...]] = [()]
    completers: list[tuple[ProcessId, ...]] = [()]
    crashed: list[frozenset[ProcessId]] = [_EMPTY_PIDS]
    sender_masks: list[int] = [0]
    completer_masks: list[int] = [0]
    crashed_masks: list[int] = [0]
    delayed_inboxes: list[tuple] = [()]
    current_senders: list[tuple] = [()]
    current_groups: list[tuple] = [()]
    current_masks: list[tuple] = [()]
    delayed_groups: list[tuple] = [()]

    # One sender tuple per distinct mask for the whole plan, and one
    # current-round row set per completer set for rounds without
    # exceptions: a failure-free plan holds a single row of each.
    sender_tuples: dict[int, tuple[ProcessId, ...]] = {}
    plain_rows: dict[int, tuple[tuple, tuple, tuple]] = {}
    no_delayed = ((),) * n
    no_delayed_groups = (0,) * n

    def current_rows(masks: list[int]) -> tuple[tuple, tuple, tuple]:
        reps: dict[int, ProcessId] = {}
        row_senders = []
        for mask in masks:
            plan = sender_tuples.get(mask)
            if plan is None:
                plan = sender_tuples[mask] = tuple(iter_bits(mask))
            row_senders.append(plan)
        return (
            tuple(row_senders),
            tuple([
                reps.setdefault(mask, pid) for pid, mask in enumerate(masks)
            ]),
            tuple(masks),
        )

    live = tuple(range(n))
    live_mask = full_mask(n)
    for k in range(1, horizon + 1):
        crashing = crashes_in.get(k)
        if crashing is None:
            round_completers = live
            completer_mask = live_mask
            crashed.append(_EMPTY_PIDS)
            crashed_masks.append(0)
        else:
            crashed_mask = mask_of(crashing)
            round_completers = tuple(
                pid for pid in live if crash_at[pid] > k
            )
            completer_mask = live_mask & ~crashed_mask
            crashed.append(interned_set(crashed_mask))
            crashed_masks.append(crashed_mask)
        senders.append(live)
        sender_masks.append(live_mask)
        completers.append(round_completers)
        completer_masks.append(completer_mask)
        live = round_completers
        live_mask = completer_mask

        # A completing receiver hears every sender that does not crash
        # in round k, give or take its exceptions; the rest hear nothing.
        round_adds = adds.get(k, {})
        round_removes = removes.get(k, {})
        exceptional = bool(round_adds or round_removes)
        rows = None if exceptional else plain_rows.get(completer_mask)
        if rows is None:
            masks = [0] * n
            for pid in round_completers:
                masks[pid] = completer_mask
            for receiver in (*round_removes, *round_adds):
                if crash_at[receiver] > k:
                    masks[receiver] = (
                        completer_mask & ~round_removes.get(receiver, 0)
                    ) | round_adds.get(receiver, 0)
            rows = current_rows(masks)
            if not exceptional:
                plain_rows[completer_mask] = rows
        current_senders.append(rows[0])
        current_groups.append(rows[1])
        current_masks.append(rows[2])

        arrivals = late.get(k)
        if arrivals is None:
            delayed_inboxes.append(no_delayed)
            delayed_groups.append(no_delayed_groups)
        else:
            round_delayed: list[tuple] = [()] * n
            for receiver, pairs in arrivals.items():
                pairs.sort()
                round_delayed[receiver] = tuple(pairs)
            dreps: dict[tuple, ProcessId] = {}
            delayed_inboxes.append(tuple(round_delayed))
            delayed_groups.append(tuple([
                dreps.setdefault(pairs, pid)
                for pid, pairs in enumerate(round_delayed)
            ]))

    return CompiledSchedule(
        schedule=schedule,
        n=n,
        horizon=horizon,
        senders=tuple(senders),
        completers=tuple(completers),
        delayed_inboxes=tuple(delayed_inboxes),
        current_senders=tuple(current_senders),
        current_groups=tuple(current_groups),
        current_masks=tuple(current_masks),
        delayed_groups=tuple(delayed_groups),
        crashed=tuple(crashed),
        sender_masks=tuple(sender_masks),
        completer_masks=tuple(completer_masks),
        crashed_masks=tuple(crashed_masks),
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
