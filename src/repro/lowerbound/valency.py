"""Valency of serial partial runs, computed by exhaustive extension.

Following the paper's Section 2: a k-round serial partial run is 0-valent
(1-valent) if every serial extension decides 0 (1), and *bivalent* if both
decisions are reachable.  For the small systems the experiments use, the
serial extension space is enumerated exhaustively, so the computed valency
is exact — provided ``crash_rounds_limit`` covers every round in which a
crash can still change the decision value (for A_{t+2} and FloodSet,
decisions in serial runs happen at t + 2 and t + 1 respectively, so t + 2
suffices; pass more for slower baselines).
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import AlgorithmFactory
from repro.errors import SimulationError
from repro.lowerbound.adversary import AdversaryBudget, Path, run_leaves, walk
from repro.types import Round, Value


def valency(
    factory: AlgorithmFactory,
    proposals: Sequence[Value],
    events: Path,
    *,
    t: int,
    prefix_rounds: Round,
    crash_rounds_limit: Round | None = None,
    horizon: Round | None = None,
) -> frozenset[Value]:
    """The set of decision values over all serial extensions of *events*.

    Args:
        events: the crash events of the k-round serial partial run
            (k = *prefix_rounds*; all event rounds must be <= k, with at
            most one crash per round and per process — ``ValueError``
            otherwise).
        crash_rounds_limit: last round in which extensions may crash
            (default t + 2).
        horizon: simulated horizon (default crash_rounds_limit + 4, enough
            for decision plus DECIDE propagation in the fast algorithms).

    Returns:
        The decision-value set; ``len() > 1`` means bivalent.  Raises if
        some extension fails to decide within the horizon (a liveness bug
        or a too-small horizon — never expected for the shipped
        algorithms).
    """
    limit = (t + 2) if crash_rounds_limit is None else crash_rounds_limit
    sim_horizon = (limit + 4) if horizon is None else horizon
    values: set[Value] = set()
    for extension, trace in run_leaves(
        factory, proposals, t=t, budget=AdversaryBudget.serial(t, limit),
        horizon=sim_horizon, prefix=events, prefix_rounds=prefix_rounds,
    ):
        decided = trace.decided_values()
        if not decided:
            raise SimulationError(
                f"serial extension {extension} undecided within "
                f"{sim_horizon} rounds; increase horizon"
            )
        values.update(decided)
        if len(values) > 1:
            break
    return frozenset(values)


def is_bivalent(
    factory: AlgorithmFactory,
    proposals: Sequence[Value],
    events: Path,
    *,
    t: int,
    prefix_rounds: Round,
    crash_rounds_limit: Round | None = None,
) -> bool:
    """Whether both decisions are reachable (see :func:`valency`)."""
    return len(valency(factory, proposals, events, t=t,
                       prefix_rounds=prefix_rounds,
                       crash_rounds_limit=crash_rounds_limit)) > 1


def classify_partial_runs(
    factory: AlgorithmFactory,
    proposals: Sequence[Value],
    *,
    t: int,
    prefix_rounds: Round,
    crash_rounds_limit: Round | None = None,
) -> list[tuple[Path, frozenset[Value]]]:
    """Valency of **every** *prefix_rounds*-round serial partial run.

    The executable form of the paper's Lemma 2 / Lemma 5 dichotomy: for a
    t + 1-deciding algorithm in its model (FloodSet in SCS) every t-round
    serial partial run must be univalent, while for A_{t+2} some t-round
    serial partial run is bivalent — the certificate that one more round
    is unavoidable.
    """
    return [
        (events, valency(factory, proposals, events, t=t,
                         prefix_rounds=prefix_rounds,
                         crash_rounds_limit=crash_rounds_limit))
        for events in walk(len(proposals), t,
                           AdversaryBudget.serial(t, prefix_rounds))
    ]
