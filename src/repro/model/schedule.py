"""Adversary schedules: crashes, message delays and losses.

A :class:`Schedule` is a complete, deterministic description of everything
the environment does in one run: which processes crash in which round, which
of their crash-round messages still get through, and which messages are
delayed to later rounds or lost.  Executing a fixed algorithm against a
fixed schedule yields exactly one run — this is what makes the paper's
indistinguishability arguments machine-checkable.

Terminology (matching the paper):

* A process *crashes in round k* means it enters round k, sends its round-k
  message to an adversary-chosen subset of processes, and never acts again.
* A message sent in round k is *delayed* if it is received in a round > k,
  and *lost* if it is never received.
* Round k is *synchronous* if every round-k message from a process that
  does **not** crash in round k is received in round k.  (Messages sent by a
  process in the round in which it crashes may be lost or delayed even in
  synchronous runs — paper, footnotes 2 and 5.)
* A run is *synchronous* if every round is synchronous (K = 1), and
  *synchronous after round k* if every round > k is synchronous.
* A run is *serial* if it is synchronous, at most one process crashes per
  round, and at most t processes crash overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.errors import ScheduleError
from repro.fingerprint import sha256
from repro.types import ProcessId, Round, validate_system_size


@dataclass(frozen=True)
class CrashSpec:
    """How a single process crashes.

    Attributes:
        round: the round in which the process crashes (it still sends in
            this round, to the receivers below, but never completes it).
        delivered_same_round: receivers that get the crash-round message in
            the crash round itself.
        delayed: receivers that get the crash-round message in a *later*
            round, as a tuple of ``(receiver, delivery)`` pairs.
            Receivers in neither set lose the message.
    """

    round: Round
    delivered_same_round: frozenset[ProcessId] = frozenset()
    delayed: tuple[tuple[ProcessId, Round], ...] = ()

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ScheduleError(f"crash round must be >= 1, got {self.round}")
        delayed_receivers = [r for r, _ in self.delayed]
        if len(delayed_receivers) != len(set(delayed_receivers)):
            raise ScheduleError("duplicate receiver in CrashSpec.delayed")
        overlap = self.delivered_same_round.intersection(delayed_receivers)
        if overlap:
            raise ScheduleError(
                f"receivers {sorted(overlap)} both same-round and delayed"
            )
        for receiver, delivery in self.delayed:
            if delivery <= self.round:
                raise ScheduleError(
                    f"delayed delivery round {delivery} must exceed crash "
                    f"round {self.round} (receiver {receiver})"
                )


@dataclass(frozen=True)
class Schedule:
    """A complete adversary schedule for a run of ``n`` processes.

    Use :class:`ScheduleBuilder` or the convenience constructors
    (:meth:`failure_free`, :meth:`synchronous`) rather than instantiating
    directly.

    Attributes:
        n: number of processes.
        t: resilience bound the run is validated against.
        horizon: number of rounds the kernel will simulate at most.  All
            delayed deliveries must land within the horizon.
        crashes: per-process crash specifications.
        delay_rows: the delayed non-crash-round messages, one row per
            ``(sent_round, receiver)``: the row maps each delivery round
            to the mask of senders (bit ``i`` for process ``i``) whose
            round-``sent_round`` message reaches *receiver* then.  A
            sender appears in at most one mask of a row.  An ES
            schedule's asynchronous prefix has hundreds of thousands of
            delayed messages at n = 1000 but a few delivery rounds per
            row, so the generator, the compiler and the kernel all work
            on rows; :attr:`delays` is the per-message view.
        losses: lost non-crash-round messages, as ``(sender, receiver,
            sent_round)`` triples.  (Whether a loss is *legal* depends on
            the model; the ES validator flags correct→correct losses.)
    """

    n: int
    t: int
    horizon: Round
    crashes: Mapping[ProcessId, CrashSpec] = field(default_factory=dict)
    delay_rows: Mapping[tuple[Round, ProcessId], Mapping[Round, int]] = field(
        default_factory=dict
    )
    losses: frozenset[tuple[ProcessId, ProcessId, Round]] = frozenset()

    # -- basic facts ----------------------------------------------------

    @property
    def processes(self) -> range:
        return range(self.n)

    @property
    def faulty(self) -> frozenset[ProcessId]:
        """Processes that crash at some point in this schedule.

        Memoized per instance (the schedule is frozen): metrics and
        record production read this per case, and at large n rebuilding
        the set per access is measurable.
        """
        cached = self.__dict__.get("_faulty_cache")
        if cached is None:
            cached = frozenset(self.crashes)
            object.__setattr__(self, "_faulty_cache", cached)
        return cached

    @property
    def correct(self) -> frozenset[ProcessId]:
        """Processes that never crash in this schedule (memoized)."""
        cached = self.__dict__.get("_correct_cache")
        if cached is None:
            cached = frozenset(
                p for p in self.processes if p not in self.crashes
            )
            object.__setattr__(self, "_correct_cache", cached)
        return cached

    @property
    def delays(self) -> Mapping[tuple[ProcessId, ProcessId, Round], Round]:
        """:attr:`delay_rows` one message at a time, read-only.

        Maps ``(sender, receiver, sent_round)`` to the delivery round.
        Built on first read and memoized: only cold readers (the SCS
        validator, replay export, diagrams, :meth:`describe`,
        :meth:`digest` and equality) use it, never a sweep's generate,
        compile and execute path.
        """
        cached = self.__dict__.get("_delays_cache")
        if cached is None:
            entries: dict[tuple[ProcessId, ProcessId, Round], Round] = {}
            for (sent, receiver), row in self.delay_rows.items():
                for delivery, mask in row.items():
                    while mask:
                        low = mask & -mask
                        entries[low.bit_length() - 1, receiver, sent] = (
                            delivery
                        )
                        mask ^= low
            cached = MappingProxyType(entries)
            object.__setattr__(self, "_delays_cache", cached)
        return cached

    def crash_round(self, pid: ProcessId) -> Round | None:
        spec = self.crashes.get(pid)
        return spec.round if spec is not None else None

    def sync_from(self) -> Round:
        """Smallest K such that every round >= K is synchronous.

        A fully synchronous schedule returns 1; the result is the
        paper's (unknown-to-the-algorithm) K.  Only a loss or a delay
        can make a round asynchronous — crash-round messages are
        unconstrained — so K comes from those tables in
        O(|delay_rows| + |losses|): round k is asynchronous iff some
        message ``(s, r, k)`` within the horizon is lost or delivered in
        another round, with s sending in round k and not crashing in
        it, and r ≠ s completing round k.  That is the module
        docstring's synchronous round, evaluated on the exceptions only;
        the tests hold it to a scan over every message
        (``tests/kernel_oracle.py``).  Memoized per instance.
        """
        cached = self.__dict__.get("_sync_from_cache")
        if cached is not None:
            return cached
        never = self.horizon + 1
        crash_at = {pid: spec.round for pid, spec in self.crashes.items()}
        gone = crashed_by_round(self.crashes, self.horizon)
        first_bad = 0
        for (k, receiver), row in self.delay_rows.items():
            if first_bad < k < never and crash_at.get(receiver, never) > k:
                late = 0
                for delivery, mask in row.items():
                    if delivery != k:
                        late |= mask
                if late & ~(gone[k] | 1 << receiver):
                    first_bad = k
        for sender, receiver, k in self.losses:
            if (
                first_bad < k < never
                and sender != receiver
                and crash_at.get(sender, never) > k
                and crash_at.get(receiver, never) > k
            ):
                first_bad = k
        object.__setattr__(self, "_sync_from_cache", first_bad + 1)
        return first_bad + 1

    def is_synchronous_run(self) -> bool:
        """True iff the run is synchronous (K = 1)."""
        return self.sync_from() == 1

    def is_serial_run(self) -> bool:
        """True iff synchronous, at most one crash per round, at most t total."""
        if len(self.crashes) > self.t:
            return False
        rounds = [spec.round for spec in self.crashes.values()]
        if len(rounds) != len(set(rounds)):
            return False
        return self.is_synchronous_run()

    # -- convenience constructors -----------------------------------------

    @staticmethod
    def failure_free(n: int, t: int, horizon: Round) -> "Schedule":
        """A synchronous schedule with no crashes, delays or losses."""
        validate_system_size(n, t)
        return Schedule(n=n, t=t, horizon=horizon)

    @staticmethod
    def synchronous(
        n: int,
        t: int,
        horizon: Round,
        crashes: Mapping[ProcessId, tuple[Round, Iterable[ProcessId]]] = {},
    ) -> "Schedule":
        """A synchronous schedule with the given crashes.

        ``crashes`` maps each crashing process to ``(round, delivered_to)``
        where ``delivered_to`` are the receivers of its crash-round message
        (delivered in the crash round; all other receivers lose it).
        """
        builder = ScheduleBuilder(n, t, horizon)
        for pid, (round_, delivered_to) in crashes.items():
            builder.crash(pid, round_, delivered_to=delivered_to)
        return builder.build()

    # -- equality / hashing (canonical key) -------------------------------

    def _key(self) -> tuple:
        return (
            self.n,
            self.t,
            self.horizon,
            tuple(sorted(self.crashes.items())),
            tuple(sorted(self.delays.items())),
            tuple(sorted(self.losses)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._key() == other._key()

    def __getstate__(self) -> dict:
        """Pickle only the dataclass fields, never the lazy caches.

        Schedules memoize their digest, synchrony round, per-message
        delay view and compiled execution plan (:mod:`repro.sim.compiled`)
        on the instance.  A pool worker receives each schedule once per
        task and recomputes the caches on first use, which is cheaper
        than shipping them.
        """
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def __hash__(self) -> int:
        return hash(self._key())

    def digest(self) -> str:
        """Stable SHA-256 hex digest of the schedule's canonical identity.

        Two schedules compare equal iff their digests match: the digest
        hashes a normalized rendering of :meth:`_key` — the same structure
        that defines equality, with unordered sets flattened to sorted
        tuples and nested dataclasses (``CrashSpec``) expanded field by
        field, so a field added to ``CrashSpec`` reaches the digest too.
        Independent of construction order, process identity and Python
        hash randomization, this is the schedule component of the batch
        engine's content-addressed cache keys (:mod:`repro.engine.cache`)
        and is safe to persist across runs, machines and Python versions.
        Memoized per instance (schedules are immutable and shared across a
        grid's algorithms).
        """
        cached = self.__dict__.get("_digest_cache")
        if cached is not None:
            return cached
        # The payload is repr() of (n, t, horizon, crashes, delays, losses)
        # with the components sorted as in _key(), built in one pass: the
        # delays (tens of thousands of entries at n = 100) sort by key
        # alone and each entry is formatted directly, never materialized
        # as a nested tuple first.
        crashes_repr = repr(tuple(
            (pid, _canonical_crash(self.crashes[pid]))
            for pid in sorted(self.crashes)
        ))
        delays = self.delays
        delay_entries = [
            f"(({sender!r}, {receiver!r}, {sent!r}), "
            f"{delays[sender, receiver, sent]!r})"
            for sender, receiver, sent in sorted(delays)
        ]
        if len(delay_entries) == 1:
            delays_repr = f"({delay_entries[0]},)"
        else:
            delays_repr = f"({', '.join(delay_entries)})"
        payload = (
            f"({self.n!r}, {self.t!r}, {self.horizon!r}, {crashes_repr}, "
            f"{delays_repr}, {tuple(sorted(self.losses))!r})"
        )
        value = sha256(payload.encode()).hexdigest()
        object.__setattr__(self, "_digest_cache", value)
        return value

    def describe(self) -> str:
        """Human-readable multi-line summary, for example scripts and logs."""
        lines = [
            f"Schedule(n={self.n}, t={self.t}, horizon={self.horizon})",
            f"  synchronous from round K={self.sync_from()}"
            + (" (synchronous run)" if self.is_synchronous_run() else ""),
        ]
        for pid in sorted(self.crashes):
            spec = self.crashes[pid]
            got = sorted(spec.delivered_same_round)
            lines.append(
                f"  p{pid} crashes in round {spec.round}; "
                f"same-round delivery to {got}; delayed {list(spec.delayed)}"
            )
        for (s, r, k), until in sorted(self.delays.items()):
            lines.append(f"  delay  r{k} {s}->{r} until round {until}")
        for s, r, k in sorted(self.losses):
            lines.append(f"  lose   r{k} {s}->{r}")
        return "\n".join(lines)


def _canonical_crash(spec: CrashSpec) -> tuple:
    """*spec*'s fields in declaration order, frozensets as sorted tuples."""
    return tuple(
        tuple(sorted(value)) if isinstance(value, frozenset) else value
        for value in (getattr(spec, f.name) for f in dataclass_fields(spec))
    )


def crashed_by_round(
    crashes: Mapping[ProcessId, CrashSpec], horizon: Round
) -> list[int]:
    """Per round k in 0..*horizon*, the mask of the processes crashing in
    round k or earlier: the senders a delay row of round k may not name."""
    gone = [0] * (horizon + 1)
    for pid, spec in crashes.items():
        if spec.round <= horizon:
            gone[spec.round] |= 1 << pid
    for k in range(1, horizon + 1):
        gone[k] |= gone[k - 1]
    return gone


def _check_delivery(delivery: Round, horizon: Round) -> None:
    if delivery > horizon:
        raise ScheduleError(
            f"delivery round {delivery} exceeds horizon {horizon}"
        )


def _check_sending_round(k: Round, horizon: Round) -> None:
    if not 1 <= k <= horizon:
        raise ScheduleError(
            f"sending round {k} is outside rounds 1..{horizon}"
        )


def _check_horizon(
    horizon: Round, crashes: Mapping[ProcessId, CrashSpec]
) -> None:
    """Reject a crash or a crash-round delivery after *horizon*."""
    for pid, spec in crashes.items():
        if spec.round > horizon:
            raise ScheduleError(
                f"process {pid} crashes after the horizon; drop the crash "
                f"or extend the horizon"
            )
        for _receiver, delivery in spec.delayed:
            _check_delivery(delivery, horizon)


class ScheduleBuilder:
    """Mutable builder for :class:`Schedule` with consistency checking.

    Delays are kept as the schedule stores them, one row per
    ``(sent_round, receiver)`` (see :attr:`Schedule.delay_rows`):
    :meth:`delay` writes one bit of a row and :meth:`delay_row` a whole
    row at once, so a generator never holds one entry per message.
    Rows are replaced, never changed in place, so built schedules can
    share them.
    """

    def __init__(self, n: int, t: int, horizon: Round) -> None:
        validate_system_size(n, t)
        if horizon < 1:
            raise ScheduleError(f"horizon must be >= 1, got {horizon}")
        self.n = n
        self.t = t
        self.horizon = horizon
        self._crashes: dict[ProcessId, CrashSpec] = {}
        self._rows: dict[tuple[Round, ProcessId], dict[Round, int]] = {}
        self._losses: set[tuple[ProcessId, ProcessId, Round]] = set()

    def _check_pid(self, pid: ProcessId) -> None:
        if not 0 <= pid < self.n:
            raise ScheduleError(f"process id {pid} out of range 0..{self.n - 1}")

    def crash(
        self,
        pid: ProcessId,
        round_: Round,
        delivered_to: Iterable[ProcessId] = (),
        delayed: Mapping[ProcessId, Round] | None = None,
    ) -> "ScheduleBuilder":
        """Crash *pid* in round *round_*.

        ``delivered_to`` receivers get the crash-round message in the crash
        round; ``delayed`` maps receivers to later delivery rounds; all
        other receivers lose the message.
        """
        self._check_pid(pid)
        if pid in self._crashes:
            raise ScheduleError(f"process {pid} already crashes")
        delivered = frozenset(delivered_to) - {pid}
        for receiver in delivered:
            self._check_pid(receiver)
        delayed_items: tuple[tuple[ProcessId, Round], ...] = ()
        if delayed:
            for receiver, delivery in delayed.items():
                self._check_pid(receiver)
                if receiver == pid:
                    raise ScheduleError("self-delivery cannot be delayed")
                _check_delivery(delivery, self.horizon)
            delayed_items = tuple(sorted(delayed.items()))
        self._crashes[pid] = CrashSpec(
            round=round_,
            delivered_same_round=delivered,
            delayed=delayed_items,
        )
        return self

    def delay(
        self, sender: ProcessId, receiver: ProcessId, k: Round, until: Round
    ) -> "ScheduleBuilder":
        """Deliver the (sender → receiver) round-k message in round *until* > k.

        Delaying the same message again replaces its delivery round.
        The range tests run inline and only a rejected message pays for
        the checks that name its fault.
        """
        key = (sender, receiver, k)
        n = self.n
        if (
            0 <= sender < n
            and 0 <= receiver < n
            and sender != receiver
            and 1 <= k < until <= self.horizon
            and key not in self._losses
        ):
            bit = 1 << sender
            row = dict(self._rows.get((k, receiver), {}))
            for delivery, mask in row.items():
                if mask & bit:
                    if mask == bit:
                        del row[delivery]
                    else:
                        row[delivery] = mask ^ bit
                    break
            row[until] = row.get(until, 0) | bit
            self._rows[k, receiver] = row
            return self
        self._check_pid(sender)
        self._check_pid(receiver)
        if sender == receiver:
            raise ScheduleError("self-delivery cannot be delayed")
        if until <= k:
            raise ScheduleError(
                f"delayed delivery round {until} must exceed sending round {k}"
            )
        _check_delivery(until, self.horizon)
        _check_sending_round(k, self.horizon)
        raise ScheduleError(f"message {key} is already lost")

    def delay_row(
        self, k: Round, receiver: ProcessId, row: Mapping[Round, int]
    ) -> "ScheduleBuilder":
        """Delay, for each ``until: mask`` of *row*, the round-k messages
        of the senders in *mask* to *receiver* until round *until*.

        Equal to one :meth:`delay` call per message, bits ascending.  A
        new row of disjoint, in-range masks, with no loss recorded
        anywhere, is stored whole (what the ES generator writes, one
        row per receiver and round); any other row goes through
        :meth:`delay` message by message, which also names a fault.
        """
        n = self.n
        if row and (k, receiver) not in self._rows and 0 <= receiver < n and (
            not self._losses
        ):
            senders = 0
            for until, mask in row.items():
                if not (
                    1 <= k < until <= self.horizon
                    and 0 < mask
                    and not mask >> n
                    and not mask & senders
                ):
                    break
                senders |= mask
            else:
                if not senders >> receiver & 1:
                    self._rows[k, receiver] = dict(row)
                    return self
        for until, mask in row.items():
            if mask < 0:
                raise ScheduleError(f"negative sender mask {mask}")
            while mask:
                low = mask & -mask
                self.delay(low.bit_length() - 1, receiver, k, until)
                mask ^= low
        return self

    def lose(
        self, sender: ProcessId, receiver: ProcessId, k: Round
    ) -> "ScheduleBuilder":
        """Lose the (sender → receiver) round-k message."""
        self._check_pid(sender)
        self._check_pid(receiver)
        if sender == receiver:
            raise ScheduleError("self-delivery cannot be lost")
        _check_sending_round(k, self.horizon)
        key = (sender, receiver, k)
        row = self._rows.get((k, receiver), {})
        if any(mask >> sender & 1 for mask in row.values()):
            raise ScheduleError(f"message {key} is already delayed")
        self._losses.add(key)
        return self

    def build(self) -> Schedule:
        """Validate cross-entry consistency and freeze into a Schedule."""
        horizon = self.horizon
        if self._crashes:
            gone = crashed_by_round(self._crashes, horizon)
            for (k, _receiver), row in self._rows.items():
                senders = 0
                for mask in row.values():
                    senders |= mask
                after_crash = senders & gone[k]
                if after_crash:
                    sender = (after_crash & -after_crash).bit_length() - 1
                    raise ScheduleError(
                        f"process {sender} crashes in round "
                        f"{self._crashes[sender].round}; use "
                        f"CrashSpec.delayed for its crash-round messages, "
                        f"and it sends nothing after that"
                    )
        for sender, _receiver, k in self._losses:
            spec = self._crashes.get(sender)
            if spec is not None and spec.round <= k:
                raise ScheduleError(
                    f"process {sender} crashes in round {spec.round}; "
                    f"round-{k} losses are implied or impossible"
                )
        _check_horizon(horizon, self._crashes)
        return Schedule(
            n=self.n,
            t=self.t,
            horizon=horizon,
            crashes=dict(self._crashes),
            delay_rows=dict(self._rows),
            losses=frozenset(self._losses),
        )
