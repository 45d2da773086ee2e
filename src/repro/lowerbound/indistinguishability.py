"""View-equality utilities for indistinguishability arguments."""

from __future__ import annotations

from repro.sim.trace import Trace
from repro.types import ProcessId, Round


def distinguishers(
    trace_a: Trace, trace_b: Trace, *, upto: Round
) -> frozenset[ProcessId]:
    """Processes whose local views differ between the runs through *upto*.

    A process outside this set cannot tell the two runs apart by the end
    of round *upto*; since automata are deterministic, its state — and any
    decision it has taken by then — is identical in both runs.
    """
    if trace_a.n != trace_b.n:
        raise ValueError("traces compare runs of different system sizes")
    return frozenset(
        pid
        for pid in range(trace_a.n)
        if trace_a.view(pid, upto) != trace_b.view(pid, upto)
    )


def decision_consistency(
    trace_a: Trace, trace_b: Trace, *, upto: Round
) -> list[str]:
    """Determinism cross-check: equal views through *upto* force equal decisions.

    Returns violations — a non-empty result would indicate a bug in the
    kernel or a non-deterministic automaton, never expected.
    """
    problems = []
    same_view = frozenset(range(trace_a.n)) - distinguishers(
        trace_a, trace_b, upto=upto
    )
    for pid in sorted(same_view):
        round_a = trace_a.decision_round(pid)
        round_b = trace_b.decision_round(pid)
        early_a = round_a is not None and round_a <= upto
        early_b = round_b is not None and round_b <= upto
        if early_a != early_b:
            problems.append(
                f"p{pid} decided by round {upto} in one run only "
                f"despite equal views"
            )
        elif early_a and early_b:
            if trace_a.decision_value(pid) != trace_b.decision_value(pid):
                problems.append(
                    f"p{pid} decided {trace_a.decision_value(pid)!r} vs "
                    f"{trace_b.decision_value(pid)!r} despite equal views"
                )
    return problems
