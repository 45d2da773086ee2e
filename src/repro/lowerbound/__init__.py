"""Lower-bound machinery: the paper's Section 2, mechanized.

The t + 2 lower bound (Proposition 1) is a bivalency argument over
*serial* runs — synchronous runs with at most one crash per round — plus a
final step (Claim 5.1, Figure 1) in which carefully delayed messages make
asynchronous runs indistinguishable from synchronous ones.  This package
makes each ingredient executable against any algorithm automaton:

* :mod:`repro.lowerbound.adversary` — the one adversary walk: path types
  (crash and delay events), :class:`AdversaryBudget` (a serial run is the
  budget with t crashes and no delays), one move generator, a depth-first
  walk from an optional prefix, one path → schedule builder and one leaf
  runner.  Every module below is a query over it;
* :mod:`repro.lowerbound.model_check` — folds over the walk: worst/best
  decision round over every serial run (Proposition 1, Lemma 13) and
  validity + agreement against bounded asynchronous adversaries;
* :mod:`repro.lowerbound.valency` — decision-value sets (0-valent /
  1-valent / bivalent) of partial runs, computed by exhaustive extension;
* :mod:`repro.lowerbound.bivalency` — Lemma 3 (bivalent initial
  configurations) and Lemma 4/5 (bivalent k-round serial partial runs) as
  searches;
* :mod:`repro.lowerbound.indistinguishability` — view-equality utilities;
* :mod:`repro.lowerbound.figure1` — the five-run gadget s1, s0, a2, a1, a0
  of Claim 5.1, constructed for real algorithms with machine-checked
  indistinguishability claims.
"""

from repro.lowerbound.adversary import (
    AdversaryBudget,
    CrashEvent,
    DelayEvent,
    build_schedule,
    run_leaves,
    walk,
)
from repro.lowerbound.bivalency import (
    find_bivalent_initial,
    find_bivalent_serial_prefix,
    initial_valencies,
)
from repro.lowerbound.figure1 import FigureOneReport, build_figure_one
from repro.lowerbound.indistinguishability import distinguishers
from repro.lowerbound.model_check import (
    CheckResult,
    check_consensus_safety,
    worst_case_serial,
)
from repro.lowerbound.valency import classify_partial_runs, valency

__all__ = [
    "CrashEvent",
    "DelayEvent",
    "AdversaryBudget",
    "walk",
    "build_schedule",
    "run_leaves",
    "worst_case_serial",
    "valency",
    "classify_partial_runs",
    "initial_valencies",
    "find_bivalent_initial",
    "find_bivalent_serial_prefix",
    "distinguishers",
    "FigureOneReport",
    "build_figure_one",
    "CheckResult",
    "check_consensus_safety",
]
