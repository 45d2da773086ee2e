"""A Chandra–Toueg-style ◇S rotating-coordinator consensus, transposed to ES.

This is the paper's "underlying consensus algorithm C" (Figure 2 assumes
"any round-based ◇P or ◇S consensus algorithm, e.g. the one based on ◇S in
[Chandra & Toueg 1996], transposed to the ES model").  The transposition
follows the paper's Section 4: a process suspects exactly the processes
from which it received no current-round message.

Structure — three ES rounds per *cycle* ρ with coordinator c(ρ) = (ρ−1) mod n:

1. **Estimate round** (round 3ρ−2): every process sends ``(CT_EST, ρ, est,
   ts)``; the coordinator records what it receives.
2. **Proposal round** (round 3ρ−1): the coordinator picks the estimate
   with the highest timestamp among the ≥ n−t estimates received (ties
   broken by lowest sender id) and broadcasts ``(CT_PROP, ρ, v)``.
3. **Ack round** (round 3ρ): a process that received the proposal adopts
   it (est ← v, ts ← ρ) and sends ``(CT_ACK, ρ, v)``; otherwise it sends
   ``(CT_NACK, ρ)``.  A process receiving acks from a majority decides v.

Safety is the classic locking argument: a decision at cycle ρ implies a
majority adopted (v, ρ); every later coordinator reads ≥ n−t > n/2
estimates, so its highest timestamp is ≥ ρ and carries v.  Termination in
ES: after the synchrony round, the first cycle with a correct coordinator
makes everyone decide.

In worst-case synchronous runs (coordinators crashing one per cycle) the
algorithm needs **3t + 3** rounds for a global decision — one of the data
points in the price-of-indulgence comparison (E5).

While nobody has decided, the run plane (:mod:`repro.sim.phase1_plane`)
claims every round through :class:`ChandraTouegRounds`, which computes
the same receive phase for all receivers from their heard masks: the
coordinator collects the estimates it heard, a receiver that heard the
PROP adopts it, and one that heard more than ⌊n/2⌋ ACKs decides the
first ACK's value.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.common import ConsensusAutomaton
from repro.model.messages import DUMMY
from repro.sim.phase1_plane import Phase1Plane, PlaneRounds, RoundFold
from repro.sim.view import RoundView
from repro.types import Payload, ProcessId, Round, Value

CT_EST = "CT_EST"
CT_PROP = "CT_PROP"
CT_NACK = "CT_NACK"
CT_ACK = "CT_ACK"

ROUNDS_PER_CYCLE = 3


def cycle_of(k: Round) -> tuple[int, int]:
    """Map an ES round to (cycle, phase) with phase in {1, 2, 3}."""
    cycle, phase = divmod(k - 1, ROUNDS_PER_CYCLE)
    return cycle + 1, phase + 1


class ChandraTouegES(ConsensusAutomaton):
    """Rotating-coordinator ◇S consensus in ES (3 rounds per cycle)."""

    def __init__(self, pid: ProcessId, n: int, t: int, proposal: Value):
        super().__init__(pid, n, t, proposal)
        self.est: Value = proposal
        self.ts: int = 0
        self._collected: dict[ProcessId, tuple[Value, int]] = {}
        self._proposal_seen: Value | None = None

    @staticmethod
    def coordinator(cycle: int, n: int) -> ProcessId:
        return (cycle - 1) % n

    @classmethod
    def plane_rounds(cls, t: int) -> PlaneRounds:
        return PlaneRounds(folds=((1, ChandraTouegRounds()),))

    def round_payload(self, k: Round) -> Payload | None:
        cycle, phase = cycle_of(k)
        if phase == 1:
            return (CT_EST, cycle, self.est, self.ts)
        if phase == 2:
            if self.pid != self.coordinator(cycle, self.n):
                return None
            if len(self._collected) < self.n - self.t:
                return None
            # Highest timestamp wins; ties broken by lowest sender id for
            # determinism.
            best_sender = max(
                self._collected,
                key=lambda p: (self._collected[p][1], -p),
            )
            return (CT_PROP, cycle, self._collected[best_sender][0])
        if self._proposal_seen is not None:
            return (CT_ACK, cycle, self._proposal_seen)
        return (CT_NACK, cycle)

    def round_deliver_view(self, k: Round, view: RoundView) -> None:
        cycle, phase = cycle_of(k)
        if phase == 1:
            self._collected = {}
            self._proposal_seen = None
            if self.pid == self.coordinator(cycle, self.n):
                for sender, payload in view.tagged(CT_EST):
                    if payload[1] == cycle:
                        self._collected[sender] = (payload[2], payload[3])
        elif phase == 2:
            coordinator = self.coordinator(cycle, self.n)
            for sender, payload in view.tagged(CT_PROP):
                if sender == coordinator and payload[1] == cycle:
                    self._proposal_seen = payload[2]
                    self.est = payload[2]
                    self.ts = cycle
        else:
            acks = [
                payload
                for _sender, payload in view.tagged(CT_ACK)
                if payload[1] == cycle
            ]
            if len(acks) > self.n // 2:
                self._decide(acks[0][2], k)

    @classmethod
    def factory(cls):
        return cls


class ChandraTouegRounds(RoundFold):
    """Every round of the Chandra–Toueg automata, *offset* rounds late
    (run round k is their round k − offset), claimed by the run plane.

    :meth:`consensus` names each sender's Chandra–Toueg automaton; the
    baseline's are the automata themselves.  Folds of one class and
    offset are equal, so classes sharing them share the claims.
    """

    __slots__ = ("offset",)
    kind = "C"

    def __init__(self, offset: int = 0) -> None:
        self.offset = offset

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.offset == self.offset

    def __hash__(self) -> int:
        return hash((type(self), self.offset))

    def consensus(
        self, plane: Phase1Plane, senders: Sequence[ProcessId]
    ) -> "Sequence[ChandraTouegES] | None":
        """Each sender's Chandra–Toueg automaton, indexed by pid, or
        ``None`` when some sender runs another algorithm there."""
        return plane.automata  # type: ignore[return-value]

    def send(self, plane, k, senders, payloads):
        cts = self.consensus(plane, senders)
        if cts is None:
            return None
        r = k - self.offset
        sent = acks = 0
        for pid in senders:
            payload = cts[pid].round_payload(r)
            bit = 1 << pid
            sent |= bit
            if payload is None:
                payload = DUMMY
            else:
                hash(payload)  # fail fast on unhashable payloads
                if payload[0] == CT_ACK:
                    acks |= bit
            payloads[pid][k] = payload
        return cts, payloads, sent, acks

    def claim(self, plane, k, opened, receivers, current_masks):
        cts, payloads, sent, acks = opened
        r = k - self.offset
        cycle, phase = cycle_of(r)
        automata = plane.automata
        coordinator = ChandraTouegES.coordinator(cycle, plane.n)
        deciders = 0
        if phase == 1:
            # Everybody sent CT_EST; only the coordinator collects.
            for pid in receivers:
                ct = cts[pid]
                ct._collected = {}
                ct._proposal_seen = None
                if pid == coordinator:
                    heard = current_masks[pid] & sent
                    while heard:
                        low = heard & -heard
                        heard ^= low
                        sender = low.bit_length() - 1
                        payload = payloads[sender][k]
                        ct._collected[sender] = (payload[2], payload[3])
        elif phase == 2:
            payload = payloads[coordinator][k]
            if sent >> coordinator & 1 and payload[0] == CT_PROP:
                value = payload[2]
                bit = 1 << coordinator
                for pid in receivers:
                    if current_masks[pid] & bit:
                        ct = cts[pid]
                        ct._proposal_seen = value
                        ct.est = value
                        ct.ts = cycle
        else:
            majority = plane.n // 2
            for pid in receivers:
                heard = current_masks[pid] & acks
                if heard.bit_count() > majority:
                    low = heard & -heard
                    value = payloads[low.bit_length() - 1][k][2]
                    ct = cts[pid]
                    ct._decide(value, r)
                    automaton = automata[pid]
                    if automaton is not ct:
                        automaton._decide(value, k)
                    deciders |= 1 << pid
        return deciders
