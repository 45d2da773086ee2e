"""Exhaustive checks over the adversary walk: decision rounds and safety.

:func:`worst_case_serial` folds every serial run into its worst and best
global decision round: Proposition 1 says the worst is at least t + 2 for
every indulgent algorithm, Lemma 13 that A_{t+2} attains exactly t + 2.

:func:`check_consensus_safety` extends the search to **asynchronous**
adversaries with bounded budgets: up to ``max_delays_per_round`` delayed
messages in each of the first ``async_rounds`` rounds, combined with up to
``max_crashes`` crashes (one per round).  Every complete schedule in the
budget is executed and checked for validity and uniform agreement — if an
algorithm has a safety bug reachable within the budget (as FloodSetWS
does), the checker returns the witness schedule.

This is how the paper's safety claims are verified against *all* small
adversaries rather than sampled ones: false suspicions are exactly
delayed messages, so the budget directly bounds the amount of
"indulgence" the algorithm must display.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algorithms.base import AlgorithmFactory
from repro.analysis.metrics import check_agreement, check_validity
from repro.lowerbound.adversary import AdversaryBudget, Path, run_leaves
from repro.model.schedule import Schedule
from repro.types import Round, Value


def worst_case_serial(
    factory: AlgorithmFactory,
    proposals: Sequence[Value],
    *,
    t: int,
    crash_rounds_limit: Round,
    horizon: Round,
) -> tuple[Round, Path, Round, Path]:
    """Exhaustive worst/best-case global decision round over serial runs.

    Explores every serial crash pattern with crashes in rounds
    ``1 .. crash_rounds_limit`` and returns ``(worst_round, worst_events,
    best_round, best_events)``.  Runs that do not decide within *horizon*
    count as ``horizon + 1``.
    """
    worst, worst_events, best, best_events = -1, (), horizon + 2, ()
    budget = AdversaryBudget.serial(t, crash_rounds_limit)
    for events, trace in run_leaves(
        factory, proposals, t=t, budget=budget, horizon=horizon
    ):
        global_round = trace.global_decision_round()
        if global_round is None:
            global_round = horizon + 1
        if global_round > worst:
            worst, worst_events = global_round, events
        if global_round < best:
            best, best_events = global_round, events
    return worst, worst_events, best, best_events


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one exhaustive exploration."""

    runs: int
    decided_runs: int
    worst_global_round: Round | None
    best_global_round: Round | None
    violation: Schedule | None = None
    violation_detail: tuple[str, ...] = field(default=())

    @property
    def safe(self) -> bool:
        return self.violation is None


def check_consensus_safety(
    factory: AlgorithmFactory,
    proposals: Sequence[Value],
    *,
    t: int,
    budget: AdversaryBudget | None = None,
    horizon: Round | None = None,
) -> CheckResult:
    """Exhaustively check validity + uniform agreement within the budget.

    Termination is *not* asserted (the horizon may simply be too short for
    slow fallbacks); undecided runs are counted separately.  Returns the
    first violating schedule found, if any — FloodSetWS yields one within
    the default budget, A_{t+2} must not.  The horizon defaults to
    ``last_move_round + t + 12``.
    """
    budget = AdversaryBudget() if budget is None else budget
    if horizon is None:
        horizon = budget.last_move_round + t + 12

    runs = decided = 0
    worst: Round | None = None
    best: Round | None = None
    for _path, trace in run_leaves(
        factory, proposals, t=t, budget=budget, horizon=horizon
    ):
        runs += 1
        problems = check_validity(trace) + check_agreement(trace)
        if problems:
            return CheckResult(runs, decided, worst, best, trace.schedule,
                               tuple(problems))
        global_round = trace.global_decision_round()
        if global_round is not None:
            decided += 1
            worst = global_round if worst is None else max(worst, global_round)
            best = global_round if best is None else min(best, global_round)
    return CheckResult(runs, decided, worst, best)
