"""Estimate/Halt bookkeeping shared by FloodSetWS and A_{t+2}.

Both algorithms flood ``(ESTIMATE, k, est, Halt)`` messages and run the
same per-round update — the paper's procedure ``compute()`` (Figure 2,
lines 33–35):

1. ``Halt_i`` gains every process p_j that p_i suspected this round (no
   round-k message received from p_j in round k) and every p_j whose
   message shows p_j suspected p_i in an earlier round (p_i ∈ Halt_j).
2. ``msgSet_i`` is the set of round-k ESTIMATE messages whose senders are
   not in the updated ``Halt_i``.
3. ``est_i`` becomes the minimum est value in ``msgSet_i``.

A process never suspects itself (the paper's assumption 2), and since
self-delivery is immediate, p_i's own message is always in ``msgSet_i`` —
so ``est_i`` is monotonically non-increasing and ``msgSet_i`` is never
empty.

The update is implemented as a *single batched pass* over the round's
ESTIMATE ``(sender, payload)`` items, entirely on int bitmasks: one loop
accumulates the arrived-sender mask and the suspecting-me mask *and*
folds the new estimate inline (a sender's est participates iff it is
outside the old halt mask and its suspecting-me bit is clear — both
known when its item is scanned; a duplicate-sender inbox that reveals a
suspicion only after folding that sender's earlier value triggers a
rare second-scan correction).  The suspected-now set is one
word-complement, and the Halt union is one ``|`` — the public ``halt``
frozenset is materialized (interned, so structurally equal rows share
one object) only when the row actually changed.  No per-step list
materialization, no ``frozenset(range(n))`` rebuild.  The entry
point is :meth:`EstimateState.compute_view`, fed by a pre-bucketed
:class:`~repro.sim.view.RoundView` (flat inboxes go through
:meth:`~repro.sim.view.RoundView.from_messages`); the equivalence with
the original two-pass formulation is property-tested in
``tests/algorithms/test_suspicion.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.sim.bitset import full_mask, interned_set, mask_of
from repro.types import Payload, ProcessId, Round, Value

if TYPE_CHECKING:
    from repro.sim.view import RoundView

ESTIMATE = "ESTIMATE"


def estimate_payload(
    k: Round, est: Value, halt: frozenset[ProcessId]
) -> Payload:
    return (ESTIMATE, k, est, halt)


@dataclass
class EstimateState:
    """Mutable Phase-1 state of one process: (est, Halt).

    ``halt`` stays the public frozenset the payloads carry; the batched
    update works on its bitmask shadow (``_halt_mask``), kept in lock
    step, so the per-round set algebra is word operations.
    """

    pid: ProcessId
    n: int
    est: Value
    halt: frozenset[ProcessId] = frozenset()

    def __post_init__(self) -> None:
        self._halt_mask = mask_of(self.halt)

    def payload(self, k: Round) -> Payload:
        return estimate_payload(k, self.est, self.halt)

    def compute_view(self, k: Round, view: "RoundView") -> None:
        """The paper's ``compute()`` for round k, from a round view.

        Only current-round ESTIMATE items participate (delayed
        estimates are stale and the suspicion semantics are defined on
        current-round receipt); the view already bucketed them, so the
        update touches nothing else.
        """
        self._compute_items(view.tagged(ESTIMATE))

    def _compute_items(
        self, items: Iterable[tuple[ProcessId, Payload]]
    ) -> None:
        """The batched update over ESTIMATE ``(sender, payload)`` items."""
        pid = self.pid
        items = tuple(items)
        # One pass accumulates the arrived-sender and suspecting-me
        # masks AND folds the estimate: a sender's est participates iff
        # the sender is outside the old halt mask and its suspecting-me
        # bit is clear — both known when its item is scanned.
        # ``contributed`` remembers whose values the fold consumed, so
        # the one case the inline fold cannot see — a duplicate-sender
        # inbox revealing a suspicion only *after* that sender's earlier
        # item was folded — is detected below and triggers a refold.
        arrived = 0
        suspecting_me = 0
        contributed = 0
        halt_mask = self._halt_mask
        have_est = False
        est = None
        for sender, payload in items:
            bit = 1 << sender
            arrived |= bit
            if pid in payload[3]:
                suspecting_me |= bit
            elif not (halt_mask | suspecting_me) & bit:
                contributed |= bit
                value = payload[2]
                if not have_est or value < est:
                    have_est = True
                    est = value
        suspected_now = full_mask(self.n) & ~arrived & ~(1 << pid)
        additions = (suspected_now | suspecting_me) & ~halt_mask
        if additions:
            halt_mask |= additions
            self._halt_mask = halt_mask
            self.halt = interned_set(halt_mask)
        if suspecting_me & contributed:
            # Rare duplicate-sender correction: refold against the final
            # exclusion set (suspected-now senders have no items, so the
            # updated halt mask is exactly that set over item senders).
            have_est = False
            est = None
            for sender, payload in items:
                if (halt_mask >> sender) & 1:
                    continue
                value = payload[2]
                if not have_est or value < est:
                    have_est = True
                    est = value
        if have_est:
            self.est = est
