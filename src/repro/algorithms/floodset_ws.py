"""FloodSetWS — consensus with a perfect failure detector in t + 1 rounds.

The algorithm of Charron-Bost, Guerraoui & Schiper (DSN 2000) that the
paper cites as the ancestor of A_{t+2}: FloodSet "With Suspicions".
Processes flood estimates together with their ``Halt`` sets (who suspected
whom) for t + 1 rounds and decide their estimate at the end of round t + 1.

With a *perfect* failure detector — equivalently, in synchronous runs,
where every suspicion is caused by a real crash — the Halt mechanism only
ever excludes crashed processes, the estimates converge by round t + 1
exactly as in FloodSet, and every run globally decides at round t + 1.

Under *unreliable* failure detection the algorithm is no longer safe: false
suspicions can leave two processes with different estimates at round t + 1.
A_{t+2} (:mod:`repro.core.att2`) is precisely this algorithm plus one extra
round to detect that situation — the tests and benches use FloodSetWS to
demonstrate the failure mode the extra round repairs.
"""

from __future__ import annotations

from repro.algorithms.common import ConsensusAutomaton
from repro.algorithms.suspicion import EstimateState
from repro.sim.phase1_plane import PlaneRounds
from repro.sim.view import RoundView
from repro.types import Payload, ProcessId, Round, Value


class FloodSetWS(ConsensusAutomaton):
    """FloodSetWS automaton (safe in SCS / under P only)."""

    announce_decision = False

    def __init__(self, pid: ProcessId, n: int, t: int, proposal: Value):
        super().__init__(pid, n, t, proposal)
        self.state = EstimateState(pid=pid, n=n, est=proposal)

    @classmethod
    def plane_rounds(cls, t: int) -> PlaneRounds:
        # Round t+1 decides after its compute().
        return PlaneRounds(compute=range(1, t + 1))

    def round_payload(self, k: Round) -> Payload | None:
        return self.state.payload(k)

    def round_deliver_view(self, k: Round, view: RoundView) -> None:
        if self._plane is not None:
            self._plane.compute_view(self.state, k, view)
        else:
            self.state.compute_view(k, view)
        if k == self.t + 1:
            self._decide(self.state.est, k)

    @classmethod
    def factory(cls):
        return cls
