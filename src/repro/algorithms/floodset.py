"""FloodSet — consensus in the synchronous model SCS in t + 1 rounds.

The classic algorithm (Lynch 1996, Section 6.2): every process floods the
set W of proposal values it has seen for t + 1 rounds, then decides
``min(W)``.  With at most t crashes, some round among the first t + 1 is
failure-free, after which all W sets are equal; hence agreement, and every
run achieves a global decision at round t + 1 — matching the t + 1 lower
bound for consensus in SCS.

The paper uses FloodSet as the synchronous yardstick: indulgence costs
exactly one extra round on top of FloodSet's t + 1.
"""

from __future__ import annotations

from repro.algorithms.common import ConsensusAutomaton
from repro.sim.bitset import intern_values
from repro.sim.view import RoundView
from repro.types import Payload, ProcessId, Round, Value

FLOOD = "FLOOD"


class FloodSet(ConsensusAutomaton):
    """FloodSet automaton for SCS.

    Decides ``min(W)`` at the end of round t + 1 and halts immediately;
    announcements are unnecessary because every correct process decides in
    the same round.
    """

    announce_decision = False

    def __init__(self, pid: ProcessId, n: int, t: int, proposal: Value):
        super().__init__(pid, n, t, proposal)
        self.known: frozenset[Value] = intern_values(frozenset({proposal}))

    def round_payload(self, k: Round) -> Payload | None:
        return (FLOOD, k, self.known)

    def round_deliver_view(self, k: Round, view: RoundView) -> None:
        # W sets converge within a couple of rounds, after which every
        # union is a no-op: keep the existing (interned) frozenset when
        # nothing new arrived, and intern grown sets so all n processes'
        # equal W sets are one shared object, not n rebuilt copies.
        known = self.known
        union = set(known)
        for _sender, payload in view.tagged(FLOOD):
            values = payload[2]
            if values is not known:
                union.update(values)
        if len(union) != len(known):
            self.known = intern_values(frozenset(union))
        if k == self.t + 1:
            self._decide(min(self.known), k)

    @classmethod
    def factory(cls):
        """An :data:`~repro.algorithms.base.AlgorithmFactory` for this class."""
        return cls
