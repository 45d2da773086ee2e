"""The Mostéfaoui–Raynal leader-based consensus — the k + 2f + 2 baseline.

Section 6 of the paper derives A_{f+2} as "an optimized version of the
second leader-based algorithm of [Mostéfaoui & Raynal 2001]", denoted AMR,
and notes (footnote 10) that a run that becomes synchronous after round k
with f later crashes takes AMR **k + 2f + 2** rounds to decide — two
communication steps per leader generation — whereas A_{f+2} needs only
k + f + 2.

Footnote 10 also supplies the translation of the eventual-leader primitive
to ES, which we use verbatim: in every round, each process elects as leader
the process with the *minimum id among the senders of the messages it
received in that round*.

Structure — two ES rounds per cycle ρ, assuming t < n/3:

1. **Leader round** (round 2ρ−1): every process sends ``(AMR_EST, ρ,
   est)``; each receiver adopts the estimate of the minimum-id sender as
   its *candidate*.
2. **Vote round** (round 2ρ): every process sends ``(AMR_CAND, ρ,
   cand)``.  Among the n−t votes with the lowest sender ids: if all carry
   the same v, decide v; else if some v appears ≥ n−2t times, adopt est ←
   v; else est ← the minimum vote.

Safety uses the paper's t < n/3 counting observation: if some process sees
n−t identical votes v, every other process's n−t votes contain v at least
n−2t times and any other value fewer than n−2t times, so every survivor
adopts v.
"""

from __future__ import annotations

from repro.algorithms.common import ConsensusAutomaton
from repro.errors import AlgorithmError
from repro.sim.view import RoundView
from repro.types import Payload, ProcessId, Round, Value

AMR_EST = "AMR_EST"
AMR_CAND = "AMR_CAND"

ROUNDS_PER_CYCLE = 2


def cycle_of(k: Round) -> tuple[int, int]:
    cycle, phase = divmod(k - 1, ROUNDS_PER_CYCLE)
    return cycle + 1, phase + 1


def lowest_sender_items(
    items, quota: int
) -> list[tuple[ProcessId, Payload]]:
    """The *quota* ``(sender, payload)`` items with the lowest sender
    ids (paper, Figure 5).

    Kernel-built views arrive ascending by sender already, so the sort
    is a near-free stability pass; it stays for hand-ordered inboxes
    built with :meth:`~repro.sim.view.RoundView.from_messages`.
    """
    return sorted(items, key=lambda item: item[0])[:quota]


class AMRLeaderES(ConsensusAutomaton):
    """Two-step leader-based consensus (requires t < n/3)."""

    def __init__(self, pid: ProcessId, n: int, t: int, proposal: Value):
        super().__init__(pid, n, t, proposal)
        if 3 * t >= n:
            raise AlgorithmError(
                f"AMR requires t < n/3 (got n={n}, t={t})"
            )
        self.est: Value = proposal
        self._candidate: Value = proposal

    def round_payload(self, k: Round) -> Payload | None:
        cycle, phase = cycle_of(k)
        if phase == 1:
            return (AMR_EST, cycle, self.est)
        return (AMR_CAND, cycle, self._candidate)

    def round_deliver_view(self, k: Round, view: RoundView) -> None:
        cycle, phase = cycle_of(k)
        current = [
            item
            for item in view.tagged(AMR_EST if phase == 1 else AMR_CAND)
            if item[1][1] == cycle
        ]
        if not current:
            return
        if phase == 1:
            _leader, payload = min(current, key=lambda item: item[0])
            self._candidate = payload[2]
            return
        votes = lowest_sender_items(current, self.n - self.t)
        values = [payload[2] for _sender, payload in votes]
        distinct = set(values)
        if len(distinct) == 1 and len(votes) >= self.n - self.t:
            self._decide(values[0], k)
            return
        threshold = self.n - 2 * self.t
        dominant = [v for v in distinct if values.count(v) >= threshold]
        if dominant:
            # At most one value can reach n-2t votes when t < n/3.
            self.est = dominant[0]
        else:
            self.est = min(values)

    @classmethod
    def factory(cls):
        return cls
