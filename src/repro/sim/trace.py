"""Run traces: the record of one simulated execution.

A :class:`Trace` captures when each process decided and halted and how
many messages were delivered; a full trace also captures, for every
round, what each process sent, what it received, and who crashed or
halted.  Two runs are *indistinguishable at process p through round k*
exactly when p's :meth:`Trace.view` prefixes agree — the central notion
of the paper's lower bound proof (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import SimulationError
from repro.model.messages import Message
from repro.model.schedule import Schedule
from repro.types import Payload, ProcessId, Round, Value


@dataclass(frozen=True)
class RoundRecord:
    """What happened in a single round.

    Attributes:
        round: the 1-based round number.
        sent: payload broadcast by each process, or ``None`` if the process
            did not send this round (already crashed or halted).
        delivered: messages received by each process that completed the
            round's receive phase, in canonical order.  Processes that
            crashed mid-round, or had halted, are absent.
        decided: decisions made during this round's receive phase.
        crashed: processes that crashed in this round.
        halted: processes that halted (returned) at the end of this round.
    """

    round: Round
    sent: Mapping[ProcessId, Payload | None]
    delivered: Mapping[ProcessId, tuple[Message, ...]]
    decided: Mapping[ProcessId, Value]
    crashed: frozenset[ProcessId]
    halted: frozenset[ProcessId]


@dataclass(frozen=True)
class Trace:
    """The record of one run.

    The kernel fills in every field except ``rounds`` in both trace
    modes; ``execute(..., trace="lean")`` leaves ``rounds`` ``None``, so
    a lean trace equals the full trace of the same run with its
    per-round records dropped.  Decisions and metrics read only the
    decision-level fields; views, diagrams and replay need ``rounds``
    (see :func:`require_full_trace`).

    Attributes:
        schedule: the adversary schedule the run was executed against.
        proposals: the value proposed by each process, by id.
        rounds_executed: number of rounds the kernel simulated.
        decisions: for each process that decided, its decision value and
            the round in which it decided.
        halted_rounds: for each process that halted (returned), the
            round at whose end it did so.
        messages: total messages delivered over the whole run.
        rounds: per-round records, ``rounds[0]`` being round 1, or
            ``None`` for a lean trace.
    """

    schedule: Schedule
    proposals: tuple[Value, ...]
    rounds_executed: int
    decisions: Mapping[ProcessId, tuple[Value, Round]] = field(
        default_factory=dict
    )
    halted_rounds: Mapping[ProcessId, Round] = field(default_factory=dict)
    messages: int = 0
    rounds: tuple[RoundRecord, ...] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.schedule.n

    @property
    def t(self) -> int:
        return self.schedule.t

    def record(self, k: Round) -> RoundRecord:
        """The record for round *k* (1-based); full traces only."""
        return require_full_trace(self, "round records")[k - 1]

    def decision_value(self, pid: ProcessId) -> Value | None:
        entry = self.decisions.get(pid)
        return entry[0] if entry is not None else None

    def decision_round(self, pid: ProcessId) -> Round | None:
        entry = self.decisions.get(pid)
        return entry[1] if entry is not None else None

    def decided_values(self) -> set[Value]:
        """The distinct decided values, as an (unordered) set.

        Callers that iterate the result into anything order-sensitive
        must wrap it in ``sorted()`` — set order is hash-seed-dependent
        and would leak into records/exports.  Audited consumers either
        sort (metrics disagreement listing, figure1, experiments) or
        consume order-insensitively (len, membership in valency).
        """
        return {value for value, _round in self.decisions.values()}

    def deciders(self) -> frozenset[ProcessId]:
        """The processes that decided (memoized — the trace is frozen)."""
        cached = self.__dict__.get("_deciders_cache")
        if cached is None:
            cached = frozenset(self.decisions)
            object.__setattr__(self, "_deciders_cache", cached)
        return cached

    def global_decision_round(self) -> Round | None:
        """The round at which the run achieves a *global decision*.

        Per the paper (Section 1.3): the round k such that every process
        that ever decides does so at round k or lower, and at least one
        process decides at round k.  ``None`` if no process decided within
        the simulated horizon.
        """
        if not self.decisions:
            return None
        return max(round_ for _value, round_ in self.decisions.values())

    def first_decision_round(self) -> Round | None:
        if not self.decisions:
            return None
        return min(round_ for _value, round_ in self.decisions.values())

    # -- process views (indistinguishability) -------------------------------

    def view(self, pid: ProcessId, upto: Round) -> tuple:
        """The local history of *pid* through round *upto*, as a hashable value.

        The view consists of the process's proposal followed by one entry
        per round: the payload it sent (``None`` if it did not send) and
        the canonical tuple of ``(sent_round, sender, payload)`` triples it
        received (``None`` if it did not complete the round).  Because
        automata are deterministic, equal view prefixes imply equal process
        states — the formal sense in which two runs are indistinguishable
        at a process.
        """
        entries = []
        for k in range(1, min(upto, self.rounds_executed) + 1):
            rec = self.record(k)
            sent = rec.sent.get(pid)
            delivered = rec.delivered.get(pid)
            received = (
                tuple((m.sent_round, m.sender, m.payload) for m in delivered)
                if delivered is not None
                else None
            )
            entries.append((k, sent, received))
        return (self.proposals[pid], tuple(entries))

    def completed(self, pid: ProcessId, k: Round) -> bool:
        """True iff *pid* completed round k's receive phase in this run."""
        if k > self.rounds_executed:
            return False
        return pid in self.record(k).delivered

    # -- convenience -------------------------------------------------------

    def crash_rounds(self) -> dict[ProcessId, Round]:
        return {
            pid: spec.round for pid, spec in self.schedule.crashes.items()
        }

    def alive_at_end(self) -> frozenset[ProcessId]:
        # Schedule.correct is itself memoized, so this is one dict hit.
        return self.schedule.correct

    def iter_messages(self) -> Iterator[Message]:
        """All messages delivered in the run, in round order."""
        for rec in require_full_trace(self, "iterating messages"):
            for msgs in rec.delivered.values():
                yield from msgs

    def message_count(self) -> int:
        return self.messages

    def describe(self) -> str:
        """Human-readable multi-line dump, for examples and debugging."""
        lines = [
            f"Trace: n={self.n} t={self.t} "
            f"rounds={self.rounds_executed} proposals={list(self.proposals)}"
        ]
        for rec in self.rounds or ():
            parts = [f"  round {rec.round}:"]
            if rec.crashed:
                parts.append(f"crashed={sorted(rec.crashed)}")
            if rec.decided:
                decided = {p: v for p, v in sorted(rec.decided.items())}
                parts.append(f"decided={decided}")
            if rec.halted:
                parts.append(f"halted={sorted(rec.halted)}")
            lines.append(" ".join(parts))
        if self.decisions:
            lines.append(
                "  decisions: "
                + ", ".join(
                    f"p{p}->{v}@r{r}"
                    for p, (v, r) in sorted(self.decisions.items())
                )
            )
        else:
            lines.append("  decisions: none within horizon")
        return "\n".join(lines)


def views_equal(
    trace_a: Trace, trace_b: Trace, pid: ProcessId, upto: Round
) -> bool:
    """True iff *pid* cannot distinguish the two runs through round *upto*."""
    return trace_a.view(pid, upto) == trace_b.view(pid, upto)


def require_full_trace(trace: Trace, what: str) -> tuple[RoundRecord, ...]:
    """*trace*'s round records, or an actionable error naming *what*.

    Lean traces carry no round records, so consumers that render or
    compare rounds (diagrams, replay, the lower-bound machinery) cannot
    work from them; without this guard the failure surfaces as a
    ``TypeError`` deep inside the consumer.  The error names the fix so
    callers don't have to.
    """
    if trace.rounds is None:
        raise SimulationError(
            f"{what} requires a full trace; this run was executed with "
            f"trace=\"lean\", which records no per-round data — re-run "
            f"with trace=\"full\""
        )
    return trace.rounds
