"""A_{t+2} — the paper's matching consensus algorithm (Figure 2).

A_{t+2} solves consensus in ES for 0 < t < n/2 and satisfies **fast
decision**: in every synchronous run, any process that ever decides does so
by round t + 2 (Lemma 13) — matching the t + 2 lower bound of
Proposition 1.

Structure:

**Phase 1 (rounds 1 .. t+1).**  Processes flood ``(ESTIMATE, k, est,
Halt)``: ``est`` is the minimum proposal seen so far and ``Halt`` the set
of processes p_j such that p_i suspected p_j, or p_j suspected p_i, at some
earlier point.  Each round runs the paper's ``compute()`` (see
:mod:`repro.algorithms.suspicion`).  Phase 1 guarantees the **elimination
property** (Lemma 6): any two processes that complete it either hold the
same estimate or at least one of them has ``|Halt| > t`` — evidence of a
false suspicion, since in a synchronous run a process lands in someone's
Halt set only by crashing (Claim 13.1), and more than t processes cannot
crash.

**Phase 2 (round t+2).**  Each process computes its *new estimate*:
``nE = est`` if ``|Halt| <= t``, else ⊥, and floods ``(NEWESTIMATE, nE)``.
By elimination, at most one distinct non-⊥ value circulates.  A process
receiving only non-⊥ values decides that value, broadcasts DECIDE in round
t + 3, and returns.  Otherwise it falls back on an *underlying* indulgent
consensus C (any ◇P/◇S round-based algorithm transposed to ES; we default
to the Chandra–Toueg-style module), proposing a received non-⊥ value if
any, else its own proposal.  A DECIDE message received at any time makes a
process decide immediately.

The fast-decision property is independent of C's time complexity: in a
synchronous run no process ever detects ``|Halt| > t``, all new estimates
are non-⊥ and equal, and everyone decides at round t + 2.

While nobody has decided, the run plane (:mod:`repro.sim.phase1_plane`)
claims Phase 1 as ``compute()`` rounds, round t + 2 through
:class:`PhaseTwoRound` (masks over the NEWESTIMATE senders a receiver
heard: how many, whether any was ⊥, the least non-⊥ value) and, when C
is Chandra–Toueg, C's rounds through :class:`UnderlyingRounds`.
"""

from __future__ import annotations

from repro.algorithms.base import AlgorithmFactory
from repro.algorithms.chandra_toueg import ChandraTouegES, ChandraTouegRounds
from repro.algorithms.common import ConsensusAutomaton
from repro.algorithms.suspicion import ESTIMATE, EstimateState
from repro.sim.phase1_plane import PlaneRounds, RoundFold
from repro.sim.view import RoundView
from repro.types import (
    BOTTOM,
    Payload,
    ProcessId,
    Round,
    Value,
    is_bottom,
    validate_indulgent_resilience,
)

NEWESTIMATE = "NEWESTIMATE"


class ATt2(ConsensusAutomaton):
    """The A_{t+2} automaton (paper, Figure 2).

    Args:
        pid, n, t, proposal: standard automaton parameters; requires
            0 < t < n/2.
        underlying: factory for the underlying consensus module C invoked
            from round t + 3 when the fast path fails.  Defaults to the
            Chandra–Toueg-style ◇S algorithm transposed to ES.
        allow_unsafe_resilience: skip the 0 < t < n/2 check.  **For
            demonstrations only** — with t >= n/2 the algorithm is unsound
            (no indulgent algorithm can be sound there, which is the
            resilience price the paper recalls from Chandra & Toueg);
            experiment E10 uses this to reproduce the split-brain
            disagreement under an ES-legal partition.
    """

    #: Subclasses (Figure 4) flip this to enable the failure-free fast path.
    optimize_failure_free = False

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Value,
        underlying: AlgorithmFactory = ChandraTouegES,
        allow_unsafe_resilience: bool = False,
    ):
        if not allow_unsafe_resilience:
            validate_indulgent_resilience(n, t)
        super().__init__(pid, n, t, proposal)
        self.state = EstimateState(pid=pid, n=n, est=proposal)
        self.new_estimate: Value | None = None
        self.vc: Value = proposal
        self._underlying_factory = underlying
        self._underlying = None
        self._offset = t + 2  # C's round r is ES round r + offset

    @classmethod
    def plane_rounds(cls, t: int) -> PlaneRounds:
        # Phase 1: rounds 1 .. t+1 are compute() and nothing else.
        return PlaneRounds(
            compute=range(1, t + 2),
            folds=((t + 2, PHASE_TWO), (t + 3, UnderlyingRounds(t + 2))),
        )

    # -- rounds ------------------------------------------------------------

    def round_payload(self, k: Round) -> Payload | None:
        if k <= self.t + 1:
            return self.state.payload(k)
        if k == self.t + 2:
            if self.new_estimate is None:
                # Beginning of round t+2 (Figure 2, line 10): a Halt set
                # larger than t proves a false suspicion occurred.
                detected_false_suspicion = (
                    self.state._halt_mask.bit_count() > self.t
                )
                self.new_estimate = (
                    BOTTOM if detected_false_suspicion else self.state.est
                )
            return (NEWESTIMATE, k, self.new_estimate)
        return self._underlying_automaton().payload(k - self._offset)

    def round_deliver_view(self, k: Round, view: RoundView) -> None:
        if k <= self.t + 1:
            if (
                self.optimize_failure_free
                and k == 2
                and self._failure_free_fast_path(k, view)
            ):
                return
            if self._plane is not None:
                self._plane.compute_view(self.state, k, view)
            else:
                self.state.compute_view(k, view)
            return
        if k == self.t + 2:
            self._phase_two(k, view)
            return
        self._run_underlying(k, view)

    # -- phase 2 -------------------------------------------------------------

    def _phase_two(self, k: Round, view: RoundView) -> None:
        total = 0
        bottoms = 0
        best: Value = None
        have_best = False
        for _sender, payload in view.tagged(NEWESTIMATE):
            total += 1
            value = payload[2]
            if is_bottom(value):
                bottoms += 1
            elif not have_best or value < best:
                have_best = True
                best = value
        if total and not bottoms:
            # Only non-⊥ new estimates received; by elimination they are
            # all equal — decide (and announce in round t+3).
            self._decide(best, k)
            return
        if have_best:
            self.vc = best
        # else: vc keeps its current value (the proposal, or the round-2
        # assignment of the failure-free optimization).

    # -- underlying consensus C ------------------------------------------------

    def _underlying_automaton(self):
        if self._underlying is None:
            self._underlying = self._underlying_factory(
                self.pid, self.n, self.t, self.vc
            )
        return self._underlying

    def _run_underlying(self, k: Round, view: RoundView) -> None:
        # C's round r is ES round r + offset, so C receives this round's
        # delivery re-timestamped offset rounds earlier.  DECIDE messages
        # never reach here (the decide-adoption protocol consumed them
        # before round_deliver_view ran), and messages sent during C's
        # "negative" rounds are dropped by the shift — exactly the
        # forwarding filter of the message-based formulation.
        inner = self._underlying_automaton()
        inner.deliver_view(k - self._offset, view.shifted(self._offset))
        if inner.decided:
            self._decide(inner.decision, k)

    # -- figure 4 fast path (used by ATt2Optimized) ------------------------------

    def _failure_free_fast_path(self, k: Round, view: RoundView) -> bool:
        """Figure 4, inserted before ``compute()`` in round 2.

        Returns True iff the process decided (and round-2 ``compute()``
        must be skipped).  When the run's Phase-1 plane is mid-round,
        the (count, tainted, min-est) inputs come from its group-shared
        scan; otherwise one local single-pass fold over the tagged items
        computes them — no intermediate list builds on either path.
        """
        if self._plane is not None:
            stats = self._plane.round2_stats(k, view)
            if stats is not None:
                count, tainted, best = stats
                if tainted or not count:
                    return False
                if count == self.n:
                    self._decide(best, k)
                    return True
                self.vc = best
                return False
        count = 0
        best: Value = None
        for _sender, payload in view.tagged(ESTIMATE):
            if payload[3]:
                # A non-empty Halt payload (nonzero mask): suspicion
                # already visible, the optimization does not apply.
                return False
            value = payload[2]
            if not count or value < best:
                best = value
            count += 1
        if not count:
            return False
        if count == self.n:
            # Complete, suspicion-free exchange: every round-2 message in
            # the run carries the global minimum — decide it.
            self._decide(best, k)
            return True
        # No suspicion visible, but not everyone was heard: pre-position
        # the fallback proposal on the (unique) circulating estimate.
        self.vc = best
        return False

    @classmethod
    def factory(
        cls,
        underlying: AlgorithmFactory = ChandraTouegES,
        *,
        allow_unsafe_resilience: bool = False,
    ):
        """A factory binding the underlying-consensus choice."""

        def build(pid: ProcessId, n: int, t: int, proposal: Value) -> "ATt2":
            return cls(
                pid,
                n,
                t,
                proposal,
                underlying=underlying,
                allow_unsafe_resilience=allow_unsafe_resilience,
            )

        build.__name__ = f"{cls.__name__}_factory"
        return build


#: "No non-⊥ value heard" in :class:`PhaseTwoRound`'s fold.
_NO_VALUE = object()


class PhaseTwoRound(RoundFold):
    """Round t + 2 (:meth:`ATt2._phase_two`) for every receiver at once.

    The send computes every sender's new estimate; the receive phase
    needs only the heard NEWESTIMATE senders' count, whether any was ⊥
    and the least non-⊥ value, the first hit in one value-sorted order
    (ascending sender on ties, as the per-receiver strict-``<`` scan).
    """

    __slots__ = ()
    kind = "t+2"

    def send(self, plane, k, senders, payloads):
        automata = plane.automata
        sent = bottoms = 0
        order = []
        for pid in senders:
            payload = automata[pid].round_payload(k)
            hash(payload)  # fail fast on unhashable payloads
            payloads[pid][k] = payload
            bit = 1 << pid
            sent |= bit
            value = payload[2]
            if is_bottom(value):
                bottoms |= bit
            else:
                order.append((value, bit))
        try:
            order.sort()
        except TypeError:
            # Unorderable new estimates: the per-receiver scan compares
            # only the values one inbox holds.
            return None
        return sent, bottoms, order

    def claim(self, plane, k, opened, receivers, current_masks):
        sent, bottoms, order = opened
        automata = plane.automata
        deciders = 0
        last = None
        for pid in receivers:
            heard = current_masks[pid] & sent
            if heard != last:
                last = heard
                best = _NO_VALUE
                for value, bit in order:
                    if heard & bit:
                        best = value
                        break
                decides = heard and not heard & bottoms
            automaton = automata[pid]
            if decides:
                automaton._decide(best, k)
                deciders |= 1 << pid
            elif best is not _NO_VALUE:
                automaton.vc = best
        return deciders


PHASE_TWO = PhaseTwoRound()


class UnderlyingRounds(ChandraTouegRounds):
    """C's rounds, from t + 3 on, when every sender's C is Chandra–Toueg
    (:meth:`ATt2._run_underlying`); a deciding C decides its A_{t+2}."""

    __slots__ = ()

    def consensus(self, plane, senders):
        automata = plane.automata
        for pid in senders:
            if automata[pid]._underlying_factory is not ChandraTouegES:
                return None
        inner = [None] * plane.n
        for pid in senders:
            inner[pid] = automata[pid]._underlying_automaton()
        return inner
