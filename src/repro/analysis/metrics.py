"""Consensus property checking and decision metrics over traces.

The three consensus properties (paper, Section 1.3):

* **validity** — a decided value was proposed by some process;
* **uniform agreement** — no two processes (correct or not) decide
  differently;
* **termination** — every correct process eventually decides; over a
  finite trace this means "within the simulated horizon", so termination
  checks are only meaningful on schedules whose horizon is generous enough.

Every checker reads only a :class:`~repro.sim.trace.Trace`'s proposals,
decisions and counters, which the kernel fills in both trace modes, so
full and lean traces of the same run give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConsensusViolation
from repro.sim.trace import Trace
from repro.types import Round, Value


def check_validity(trace: Trace) -> list[str]:
    """Violations of validity: decided values that nobody proposed."""
    proposed = set(trace.proposals)
    problems = []
    for pid, (value, round_) in sorted(trace.decisions.items()):
        if value not in proposed:
            problems.append(
                f"validity: p{pid} decided {value!r} at round {round_}, "
                f"which no process proposed"
            )
    return problems


def check_agreement(trace: Trace) -> list[str]:
    """Violations of uniform agreement: two processes deciding differently."""
    values = trace.decided_values()
    if len(values) <= 1:
        return []
    detail = ", ".join(
        f"p{pid}->{value!r}@r{round_}"
        for pid, (value, round_) in sorted(trace.decisions.items())
    )
    return [f"uniform agreement: {len(values)} distinct decisions ({detail})"]


def check_termination(trace: Trace) -> list[str]:
    """Violations of termination: correct processes undecided at the horizon."""
    problems = []
    for pid in sorted(trace.schedule.correct):
        if pid not in trace.decisions:
            problems.append(
                f"termination: correct p{pid} undecided after "
                f"{trace.rounds_executed} rounds"
            )
    return problems


def check_consensus(
    trace: Trace, *, expect_termination: bool = True
) -> list[str]:
    """All consensus violations exhibited by the trace."""
    problems = check_validity(trace) + check_agreement(trace)
    if expect_termination:
        problems += check_termination(trace)
    return problems


def assert_consensus(
    trace: Trace, *, expect_termination: bool = True
) -> Trace:
    """Raise :class:`ConsensusViolation` if the trace violates consensus."""
    problems = check_consensus(trace, expect_termination=expect_termination)
    if problems:
        raise ConsensusViolation("; ".join(problems))
    return trace


@dataclass(frozen=True)
class DecisionSummary:
    """Headline numbers of one run."""

    n: int
    t: int
    crashes: int
    sync_from: Round
    global_round: Round | None
    first_round: Round | None
    deciders: int
    values: tuple[Value, ...]
    messages: int

    @property
    def decided_everywhere(self) -> bool:
        return self.deciders > 0 and self.global_round is not None


def summarize(trace: Trace) -> DecisionSummary:
    return DecisionSummary(
        n=trace.n,
        t=trace.t,
        crashes=len(trace.schedule.crashes),
        sync_from=trace.schedule.sync_from(),
        global_round=trace.global_decision_round(),
        first_round=trace.first_decision_round(),
        deciders=len(trace.decisions),
        values=tuple(sorted(trace.decided_values(), key=repr)),
        messages=trace.message_count(),
    )
