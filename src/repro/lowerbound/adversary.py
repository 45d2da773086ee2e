"""The one adversary walk behind every exhaustive lower-bound query.

Proposition 1 (no indulgent algorithm decides before t + 2) and Lemma 13
(A_{t+2} decides at exactly t + 2 in synchronous runs) quantify over every
run an adversary can produce.  A *path* is the tuple of events the
adversary chose, round by round; :class:`AdversaryBudget` bounds it, and a
*serial* run (paper, Section 2: synchronous, at most one crash per round
and t overall) is :meth:`AdversaryBudget.serial`.  Valency, bivalency and
the model checker are folds over :func:`walk` and :func:`run_leaves`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from repro.algorithms.base import AlgorithmFactory
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.kernel import run_algorithm
from repro.sim.trace import Trace
from repro.types import ProcessId, Round, Value, validate_system_size


@dataclass(frozen=True, order=True)
class CrashEvent:
    """*pid* crashes in *round*; only *delivered_to* get its last message."""

    round: Round
    pid: ProcessId
    delivered_to: frozenset[ProcessId]


@dataclass(frozen=True, order=True)
class DelayEvent:
    """The (sender → receiver) message of *round*, delivered in *until*."""

    round: Round
    sender: ProcessId
    receiver: ProcessId
    until: Round


Path = tuple[CrashEvent | DelayEvent, ...]


@dataclass(frozen=True)
class AdversaryBudget:
    """Bounds on the explored adversary.

    Attributes:
        max_crashes: total crash budget (at most one crash per round, in
            rounds 1..crash_rounds; never more than t).
        crash_rounds: last round in which a crash may be scheduled.
        async_rounds: rounds 1..async_rounds may contain delayed messages
            (the bounded asynchronous prefix; later rounds are
            synchronous, so runs terminate).
        max_delays_per_round: how many (sender → receiver) messages may be
            delayed in one round.
        delay_span: delayed messages arrive this many rounds late.
    """

    max_crashes: int = 1
    crash_rounds: Round = 2
    async_rounds: Round = 2
    max_delays_per_round: int = 1
    delay_span: Round = 1

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            least = 1 if name == "delay_span" else 0
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    @classmethod
    def serial(cls, t: int, crash_rounds: Round) -> AdversaryBudget:
        """Serial runs with crashes in rounds 1..*crash_rounds*."""
        return cls(max_crashes=t, crash_rounds=crash_rounds,
                   async_rounds=0, max_delays_per_round=0)

    @property
    def last_move_round(self) -> Round:
        return max(self.crash_rounds, self.async_rounds)

    def check_horizon(self, horizon: Round) -> None:
        """Reject a horizon too short to hold every move of the budget."""
        needed = max(self.crash_rounds, self.async_rounds + self.delay_span)
        if horizon < needed:
            raise ValueError(
                f"horizon {horizon} cannot hold {self}; need >= {needed}"
            )


def _check_prefix(prefix: Path, rounds: Round) -> None:
    """Raise unless *prefix* is a *rounds*-round partial run."""
    crashes: dict[ProcessId, Round] = {}
    for event in prefix:
        if event.round > rounds:
            raise ValueError(f"prefix event {event} after round {rounds}")
        if isinstance(event, CrashEvent):
            if event.pid in crashes:
                raise ValueError(f"prefix crashes process {event.pid} twice")
            if event.round in crashes.values():
                raise ValueError(f"two crashes in round {event.round}")
            crashes[event.pid] = event.round


def round_moves(
    n: int, t: int, budget: AdversaryBudget, path: Path, k: Round
) -> Iterator[Path]:
    """Every adversary choice for round *k* after *path*, in walk order.

    No crash first, then each alive process crashing (pid ascending) with
    every subset of the other alive processes receiving its final message,
    smallest subsets first (delivery to crashed processes is unobservable,
    so those subsets are skipped).  In rounds 1..async_rounds each crash
    choice is combined with every set of at most max_delays_per_round
    delayed messages among the survivors, the empty set first.
    """
    crashed = {e.pid for e in path if isinstance(e, CrashEvent)}
    alive = [p for p in range(n) if p not in crashed]
    crashes: list[CrashEvent | None] = [None]
    if len(crashed) < min(budget.max_crashes, t) and k <= budget.crash_rounds:
        for pid in alive:
            receivers = [q for q in alive if q != pid]
            crashes.extend(
                CrashEvent(round=k, pid=pid, delivered_to=frozenset(subset))
                for size in range(len(receivers) + 1)
                for subset in combinations(receivers, size)
            )
    delays = budget.max_delays_per_round if k <= budget.async_rounds else 0
    until = k + budget.delay_span
    for crash in crashes:
        head: Path = () if crash is None else (crash,)
        senders = [p for p in alive if crash is None or p != crash.pid]
        pairs = [DelayEvent(round=k, sender=s, receiver=r, until=until)
                 for s in senders if delays for r in senders if r != s]
        for size in range(delays + 1):
            for delayed in combinations(pairs, size):
                yield head + delayed


def walk(
    n: int, t: int, budget: AdversaryBudget, prefix: Path = (),
    prefix_rounds: Round = 0,
) -> Iterator[Path]:
    """Every path extending *prefix* through round ``last_move_round``.

    *prefix* is a *prefix_rounds*-round partial run: its events lie in
    rounds 1..prefix_rounds, with at most one crash per round and per
    process (``ValueError`` otherwise).  Its crashes count against the
    budget.  Paths come depth first, each round in :func:`round_moves`
    order.
    """
    validate_system_size(n, t)
    _check_prefix(prefix, prefix_rounds)

    def extend(path: Path, k: Round) -> Iterator[Path]:
        if k > budget.last_move_round:
            yield path
            return
        for move in round_moves(n, t, budget, path, k):
            yield from extend(path + move, k + 1)

    yield from extend(tuple(prefix), prefix_rounds + 1)


def build_schedule(n: int, t: int, path: Path, horizon: Round) -> Schedule:
    """The schedule realizing *path*; unnamed messages arrive on time."""
    builder = ScheduleBuilder(n, t, horizon)
    for e in path:
        if isinstance(e, CrashEvent):
            builder.crash(e.pid, e.round, delivered_to=e.delivered_to)
        else:
            builder.delay(e.sender, e.receiver, e.round, e.until)
    return builder.build()


def run_leaves(
    factory: AlgorithmFactory, proposals: Sequence[Value], *, t: int,
    budget: AdversaryBudget, horizon: Round, prefix: Path = (),
    prefix_rounds: Round = 0,
) -> Iterator[tuple[Path, Trace]]:
    """Execute *factory* on every leaf of :func:`walk`, in walk order."""
    budget.check_horizon(horizon)
    n = len(proposals)
    for path in walk(n, t, budget, prefix, prefix_rounds):
        schedule = build_schedule(n, t, path, horizon)
        yield path, run_algorithm(factory, schedule, proposals)
