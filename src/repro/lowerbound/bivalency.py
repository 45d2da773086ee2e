"""Bivalent configurations and partial runs (paper, Lemmas 3–5).

* Lemma 3: some initial configuration is bivalent.  The proof walks the
  chain C_0 .. C_n (C_i: the first i processes propose 1, the rest 0) and
  shows adjacent univalent configurations must share a valency — so a
  bivalent one exists whenever t >= 1.  :func:`find_bivalent_initial`
  performs exactly this walk.
* Lemma 4: a bivalent (t−1)-round serial partial run exists.
  :func:`find_bivalent_serial_prefix` searches for a bivalent k-round
  prefix by greedy extension of bivalent prefixes (walking every one-round
  serial extension), mirroring the induction.
* Lemma 5: A bivalent *t*-round serial partial run exists for indulgent
  algorithms — found by the same search with ``target_round=t`` — whereas
  the t + 1-round-deciding FloodSet in SCS has none (Lemma 2's
  contrapositive).  Experiment E2 tabulates both.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import AlgorithmFactory
from repro.lowerbound.adversary import AdversaryBudget, Path, walk
from repro.lowerbound.valency import is_bivalent, valency
from repro.types import Round, Value


def chain_configurations(n: int, zero: Value = 0, one: Value = 1) -> list[list[Value]]:
    """The proposal chains C_0 .. C_n of Lemma 3 (C_i: first i propose 1)."""
    return [
        [one] * i + [zero] * (n - i)
        for i in range(n + 1)
    ]


def initial_valencies(
    factory: AlgorithmFactory,
    n: int,
    t: int,
    *,
    crash_rounds_limit: Round | None = None,
) -> list[tuple[list[Value], frozenset[Value]]]:
    """Valency of every chain configuration C_0 .. C_n."""
    return [
        (
            proposals,
            valency(
                factory,
                proposals,
                (),
                t=t,
                prefix_rounds=0,
                crash_rounds_limit=crash_rounds_limit,
            ),
        )
        for proposals in chain_configurations(n)
    ]


def find_bivalent_initial(
    factory: AlgorithmFactory,
    n: int,
    t: int,
    *,
    crash_rounds_limit: Round | None = None,
) -> list[Value] | None:
    """The first bivalent configuration along the Lemma-3 chain, if any."""
    for proposals, vals in initial_valencies(
        factory, n, t, crash_rounds_limit=crash_rounds_limit
    ):
        if len(vals) > 1:
            return proposals
    return None


def find_bivalent_serial_prefix(
    factory: AlgorithmFactory,
    proposals: Sequence[Value],
    *,
    t: int,
    target_round: Round,
    crash_rounds_limit: Round | None = None,
) -> Path | None:
    """A bivalent *target_round*-round serial partial run, or ``None``.

    Depth-first search over serial prefixes keeping only bivalent ones, as
    in the Lemma-4 induction: the children of a k-round prefix are its
    one-round walk to round k + 1.  ``target_round = 0`` asks whether the
    initial configuration itself is bivalent.
    """
    n = len(proposals)

    def extend(events: Path, k: Round) -> Path | None:
        if not is_bivalent(factory, proposals, events, t=t, prefix_rounds=k,
                           crash_rounds_limit=crash_rounds_limit):
            return None
        if k == target_round:
            return events
        for child in walk(n, t, AdversaryBudget.serial(t, k + 1), events, k):
            found = extend(child, k + 1)
            if found is not None:
                return found
        return None

    return extend((), 0)
