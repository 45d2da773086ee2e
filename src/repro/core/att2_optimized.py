"""A_{t+2} optimized for failure-free runs (paper, Section 5.2 / Figure 4).

In practice failure-free runs dominate, and two rounds is the lower bound
for global decision in "well-behaved" runs (Keidar & Rajsbaum).  The
optimization inserts a check before round 2's ``compute()``:

* if a process receives round-2 messages **from all n processes, each with
  Halt = ∅**, round 1 was a complete suspicion-free exchange, so every
  round-2 estimate in the entire run equals the global minimum d — the
  process decides d immediately, announces DECIDE in round 3, and returns;
* otherwise, if every round-2 message it *did* receive has Halt = ∅, it
  pre-positions its fallback proposal ``vc`` on the unique circulating
  estimate.

The modification preserves all consensus properties and the t + 2 fast
decision (the paper argues this in Section 5.2; the exhaustive serial-run
tests verify it mechanically), and achieves a global decision at round 2 in
every failure-free synchronous run — reproduced as experiment E7.
"""

from __future__ import annotations

from repro.core.att2 import ATt2
from repro.sim.phase1_plane import PlaneRounds


class ATt2Optimized(ATt2):
    """A_{t+2} with the Figure-4 failure-free fast path enabled."""

    optimize_failure_free = True

    @classmethod
    def plane_rounds(cls, t: int) -> PlaneRounds:
        # Round 2 runs the fast path before compute().
        declared = super().plane_rounds(t)
        return PlaneRounds(
            [k for k in declared.compute if k != 2], declared.folds
        )
