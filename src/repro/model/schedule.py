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

import hashlib
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from itertools import chain
from typing import Iterable, Mapping

from repro.errors import ScheduleError
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
            round, as a tuple of ``(receiver, delivery_round)`` pairs.
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

    def delayed_delivery(self, receiver: ProcessId) -> Round | None:
        """Delivery round of the crash-round message to *receiver*, if delayed.

        Backed by a lazily-built ``receiver -> round`` mapping (validators
        and the schedule compiler ask this once per sender×receiver pair,
        so a linear scan over ``delayed`` turns quadratic at large n).
        The mapping is cached on the instance and rebuilt on demand after
        unpickling (:meth:`__getstate__` strips caches).
        """
        mapping = self.__dict__.get("_delayed_map")
        if mapping is None:
            mapping = dict(self.delayed)
            object.__setattr__(self, "_delayed_map", mapping)
        return mapping.get(receiver)

    def __getstate__(self) -> dict:
        """Pickle only the dataclass fields, never the lazy caches."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


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
        delays: delivery round for delayed non-crash-round messages, keyed
            by ``(sender, receiver, sent_round)``.
        losses: lost non-crash-round messages, as ``(sender, receiver,
            sent_round)`` triples.  (Whether a loss is *legal* depends on
            the model; the ES validator flags correct→correct losses.)
    """

    n: int
    t: int
    horizon: Round
    crashes: Mapping[ProcessId, CrashSpec] = field(default_factory=dict)
    delays: Mapping[tuple[ProcessId, ProcessId, Round], Round] = field(
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

    def crash_round(self, pid: ProcessId) -> Round | None:
        spec = self.crashes.get(pid)
        return spec.round if spec is not None else None

    def sends_in_round(self, pid: ProcessId, k: Round) -> bool:
        """True iff *pid* is still up at the start of round k (so it sends)."""
        crash = self.crash_round(pid)
        return crash is None or crash >= k

    def completes_round(self, pid: ProcessId, k: Round) -> bool:
        """True iff *pid* survives the whole of round k."""
        crash = self.crash_round(pid)
        return crash is None or crash > k

    def crashed_in(self, k: Round) -> frozenset[ProcessId]:
        return frozenset(
            p for p, spec in self.crashes.items() if spec.round == k
        )

    # -- delivery semantics ---------------------------------------------

    def delivery_round(
        self, sender: ProcessId, receiver: ProcessId, k: Round
    ) -> Round | None:
        """The round in which the (sender → receiver, round k) message arrives.

        Returns ``None`` if the message is lost or was never sent (the
        sender crashed in an earlier round).  Self-delivery is always
        immediate: a process "receives" its own round-k message in round k.
        """
        if sender == receiver:
            return k if self.sends_in_round(sender, k) else None
        if not self.sends_in_round(sender, k):
            return None
        spec = self.crashes.get(sender)
        if spec is not None and spec.round == k:
            if receiver in spec.delivered_same_round:
                return k
            return spec.delayed_delivery(receiver)
        if (sender, receiver, k) in self.losses:
            return None
        return self.delays.get((sender, receiver, k), k)

    def deliveries_to(
        self, receiver: ProcessId, k: Round
    ) -> list[tuple[ProcessId, Round]]:
        """All ``(sender, sent_round)`` pairs arriving at *receiver* in round k."""
        arrivals = []
        for sender in self.processes:
            for sent in range(1, k + 1):
                if self.delivery_round(sender, receiver, sent) == k:
                    arrivals.append((sender, sent))
        return arrivals

    # -- synchrony classification ----------------------------------------

    def is_synchronous_round(self, k: Round) -> bool:
        """True iff every round-k message from a non-crashing sender arrives in round k.

        Messages from a process crashing in round k are unconstrained
        (paper, footnote 5).  Messages to receivers that do not complete
        round k are ignored.
        """
        for sender in self.processes:
            if not self.sends_in_round(sender, k):
                continue
            if self.crash_round(sender) == k:
                continue
            for receiver in self.processes:
                if receiver == sender:
                    continue
                if not self.completes_round(receiver, k):
                    continue
                if self.delivery_round(sender, receiver, k) != k:
                    return False
        return True

    def sync_from(self) -> Round:
        """Smallest K such that every round >= K is synchronous.

        A fully synchronous schedule returns 1; the result is the
        paper's (unknown-to-the-algorithm) K.  Only a ``losses`` or
        ``delays`` entry can make a round asynchronous — crash-round
        messages are unconstrained — so K comes from those tables in
        O(|delays| + |losses|): round k is asynchronous iff some entry
        ``(s, r, k)`` within the horizon has s sending in round k and
        not crashing in it, r ≠ s completing round k, and a delivery
        other than round k.  This is :meth:`is_synchronous_round`'s
        predicate, evaluated on the exceptions only.  Memoized per
        instance.
        """
        cached = self.__dict__.get("_sync_from_cache")
        if cached is not None:
            return cached
        never = self.horizon + 1
        crash_at = {pid: spec.round for pid, spec in self.crashes.items()}
        late = (
            key for key, delivery in self.delays.items() if delivery != key[2]
        )
        first_bad = 0
        for sender, receiver, k in chain(self.losses, late):
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

    # -- derived schedules -----------------------------------------------

    def with_horizon(self, horizon: Round) -> "Schedule":
        """A copy of this schedule with a different horizon.

        Shrinking is checked like :meth:`ScheduleBuilder.build`: no
        crash and no delivery may fall after the new horizon.
        """
        if horizon < self.horizon:
            try:
                _check_horizon(horizon, self.crashes, self.delays)
            except ScheduleError as err:
                raise ScheduleError(
                    f"cannot shrink horizon to {horizon}: {err}"
                ) from None
        return Schedule(
            n=self.n,
            t=self.t,
            horizon=horizon,
            crashes=dict(self.crashes),
            delays=dict(self.delays),
            losses=self.losses,
        )

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

        Schedules memoize their digest, synchrony round and compiled
        execution plan (:mod:`repro.sim.compiled`) on the instance.  A
        pool worker receives each schedule once per task and recomputes
        the caches on first use, which is cheaper than shipping them.
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
        field, so any field added to the identity automatically reaches
        the digest too.  Independent of construction order, process
        identity and Python hash randomization, this is the schedule
        component of the batch engine's content-addressed cache keys
        (:mod:`repro.engine.cache`) and is safe to persist across runs,
        machines and Python versions.  Memoized per instance (schedules
        are immutable and shared across a grid's algorithms).
        """
        cached = self.__dict__.get("_digest_cache")
        if cached is not None:
            return cached

        def normalize(value):
            if isinstance(value, CrashSpec):
                return tuple(
                    normalize(getattr(value, f.name))
                    for f in dataclass_fields(value)
                )
            if isinstance(value, frozenset):
                return tuple(sorted(value))
            if isinstance(value, tuple):
                return tuple(normalize(item) for item in value)
            return value

        # The delay and loss components are tuples of ints, on which
        # normalize is the identity; only the crash items need it.
        n, t, horizon, crashes, delays, losses = self._key()
        payload = repr(
            (n, t, horizon, normalize(crashes), delays, losses)
        )
        value = hashlib.sha256(payload.encode()).hexdigest()
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


def _check_delivery(delivery: Round, horizon: Round) -> None:
    if delivery > horizon:
        raise ScheduleError(
            f"delivery round {delivery} exceeds horizon {horizon}"
        )


def _check_horizon(
    horizon: Round,
    crashes: Mapping[ProcessId, CrashSpec],
    delays: Mapping[tuple[ProcessId, ProcessId, Round], Round],
) -> None:
    """Reject a crash or a delayed delivery after *horizon*."""
    for pid, spec in crashes.items():
        if spec.round > horizon:
            raise ScheduleError(
                f"process {pid} crashes after the horizon; drop the crash "
                f"or extend the horizon"
            )
        for _receiver, delivery in spec.delayed:
            _check_delivery(delivery, horizon)
    for delivery in delays.values():
        _check_delivery(delivery, horizon)


class ScheduleBuilder:
    """Mutable builder for :class:`Schedule` with consistency checking."""

    def __init__(self, n: int, t: int, horizon: Round) -> None:
        validate_system_size(n, t)
        if horizon < 1:
            raise ScheduleError(f"horizon must be >= 1, got {horizon}")
        self.n = n
        self.t = t
        self.horizon = horizon
        self._crashes: dict[ProcessId, CrashSpec] = {}
        self._delays: dict[tuple[ProcessId, ProcessId, Round], Round] = {}
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
        """Deliver the (sender → receiver) round-k message in round *until* > k."""
        self._check_pid(sender)
        self._check_pid(receiver)
        if sender == receiver:
            raise ScheduleError("self-delivery cannot be delayed")
        if until <= k:
            raise ScheduleError(
                f"delayed delivery round {until} must exceed sending round {k}"
            )
        _check_delivery(until, self.horizon)
        key = (sender, receiver, k)
        if key in self._losses:
            raise ScheduleError(f"message {key} is already lost")
        self._delays[key] = until
        return self

    def lose(
        self, sender: ProcessId, receiver: ProcessId, k: Round
    ) -> "ScheduleBuilder":
        """Lose the (sender → receiver) round-k message."""
        self._check_pid(sender)
        self._check_pid(receiver)
        if sender == receiver:
            raise ScheduleError("self-delivery cannot be lost")
        key = (sender, receiver, k)
        if key in self._delays:
            raise ScheduleError(f"message {key} is already delayed")
        self._losses.add(key)
        return self

    def build(self) -> Schedule:
        """Validate cross-entry consistency and freeze into a Schedule."""
        for (sender, _receiver, k), _until in self._delays.items():
            spec = self._crashes.get(sender)
            if spec is not None and spec.round <= k:
                raise ScheduleError(
                    f"process {sender} crashes in round {spec.round}; use "
                    f"CrashSpec.delayed for its crash-round messages, and it "
                    f"sends nothing after that"
                )
        for sender, _receiver, k in self._losses:
            spec = self._crashes.get(sender)
            if spec is not None and spec.round <= k:
                raise ScheduleError(
                    f"process {sender} crashes in round {spec.round}; "
                    f"round-{k} losses are implied or impossible"
                )
        _check_horizon(self.horizon, self._crashes, self._delays)
        return Schedule(
            n=self.n,
            t=self.t,
            horizon=self.horizon,
            crashes=dict(self._crashes),
            delays=dict(self._delays),
            losses=frozenset(self._losses),
        )
