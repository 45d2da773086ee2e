"""The run-level Phase-1 suspicion plane: batched ``compute()`` rounds.

The paper's Phase-1 update (Figure 2's ``compute()``, shared by A_{t+2}
and FloodSetWS through :class:`~repro.algorithms.suspicion.
EstimateState`) is the last O(n²)-per-round *automaton-state* loop in
the system: every receiver independently re-scans all n round-k
``(sender, payload)`` ESTIMATE items to find who arrived, who suspects
it, and the minimum circulating estimate.  At n = 1000 that scan —
n receivers × n items × t+1 rounds — dominates every att2 sweep row.

:class:`Phase1Plane` computes the same round for *every live receiver
at once*, against the same state rows, with three structural moves:

* **Global round setup.**  The round's *entire* fold input — the
  ESTIMATE-broadcaster bitmask and one est-sorted ``(est, sender_bit)``
  order — is derived once, from the kernel's payload grid, by
  :meth:`Phase1Plane.begin_round`.  A receiver's arrived-ESTIMATE set
  is then a single word op — ``est_mask & heard`` — because each
  sender broadcasts exactly one payload per round.
* **An incrementally-maintained bit-transpose of the Halt matrix.**
  ``suspecting-me`` for receiver i is "which arrived senders carry i in
  their round-k Halt payload".  Payload Halt masks equal the senders'
  state rows (``EstimateState._halt_mask``) at send time, so the plane
  keeps ``transpose[i]`` = the mask of processes whose Halt row
  contains i, and the per-receiver query collapses to ``arrived &
  transpose[i]`` — one word op instead of n per-payload bit tests, and
  no Halt frozenset is built.  Halt rows are monotone and change
  rarely; ``begin_round`` re-transposes **only the bits an ESTIMATE
  sender's row gained** (no other process can be in an arrived mask).
* **First-hit min-est fold.**  With the round's ``(est, sender_bit)``
  entries pre-sorted (tuple order: est first, ascending sender bit on
  ties — exactly the strict-``<`` first-minimal fold's tie-break), each
  receiver's new estimate is the first entry whose sender is delivered
  and outside its updated Halt mask — usually the very first entry.
  Rounds whose est values are mutually unorderable (the sort raises
  ``TypeError``) mark themselves unsorted and every receiver falls back
  to the exact per-receiver scan, which only compares values that
  actually meet in one inbox.

The plane is **opt-in and run-scoped**.  An automaton class opts in by
listing rounds in :meth:`~repro.algorithms.base.Automaton.
phase1_plane_rounds` (whose docstring is the whole contract);
:func:`build_run_plane` builds and binds one plane per execution when
the classes in the run share at least one such round.  While no
process has decided (so no DECIDE payload exists, current or delayed,
and nobody has halted) a shared plane round whose ests sort is
**claimed**: :meth:`Phase1Plane.send` writes every sender's
``state.payload(k)`` into the kernel's payload grid and opens the
round, and :meth:`Phase1Plane.claim` folds every completer from its
plan mask — no automaton ``payload`` or ``deliver_view`` runs, in
either trace mode.  ``claim`` reuses the previous receiver's fold while
heard mask, Halt row and transpose row repeat (exact: a completer
hears its own ESTIMATE, so nothing else of it enters the fold;
:attr:`Phase1Plane.claimed_folds` counts the folds), writes A_◇S's
detector history (:meth:`Phase1Plane.log_suspicions`) and appends k to
:attr:`Phase1Plane.claimed_rounds`.  Every other round the automata
send, the kernel opens it with :meth:`Phase1Plane.begin_round` and
closes it with :meth:`Phase1Plane.end_round`, and bound automata call
:meth:`Phase1Plane.compute_view`, the same fold on the view's mask,
which falls back to the exact per-receiver
:meth:`~repro.algorithms.suspicion.EstimateState.compute_view` whenever
the plane is not mid-round (direct ``deliver_view`` calls, the tests'
reference kernel) — so every entry point computes the identical update
and the byte-identity suite holds the kernel to the reference kernel in
both trace modes.  The row refresh absorbs out-of-band Halt-row changes
*between* rounds, but mid-round mutation outside the plane would
desynchronize the transpose — the invariant
``tests/algorithms/test_phase1_plane.py`` drives against the
per-receiver oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.sim.bitset import full_mask, mask_of
from repro.types import ProcessId, Round, Value

if TYPE_CHECKING:  # runtime stays decoupled from the algorithm layer
    from repro.algorithms.base import Automaton
    from repro.algorithms.suspicion import EstimateState
    from repro.sim.view import RoundView

__all__ = ["Phase1Plane", "build_run_plane"]

#: The ESTIMATE payload tag (mirrors ``repro.algorithms.suspicion.
#: ESTIMATE``; defined here so the plane's hot loop never imports the
#: algorithm layer — same idiom as ``view._DECIDE``).
_ESTIMATE = "ESTIMATE"


class Phase1Plane:
    """One run's shared Phase-1 state plane (see the module docstring).

    Holds every process's ``(est, halt_mask)`` row by reference to the
    automata's own :class:`~repro.algorithms.suspicion.EstimateState`
    objects — the plane writes the same state the per-receiver path
    would, so Phase 2 and the Figure-4 fast path read estimates and
    Halt masks exactly as before.
    """

    __slots__ = (
        "n", "_states", "_full", "_rows", "_transpose", "_nonempty_rows",
        "_est_mask", "_order", "_sortable", "_round", "_active",
        "_plane_rounds", "_fd_logs", "claimed_rounds", "claimed_folds",
    )

    def __init__(
        self,
        states: Sequence["EstimateState"],
        plane_rounds: int = 0,
    ) -> None:
        self.n = len(states)
        self._states = tuple(states)
        self._full = full_mask(self.n)
        # Last-seen halt rows, refreshed per round; transpose[i] is the
        # mask of processes whose (last-seen) Halt row contains i, and
        # _nonempty_rows the mask of processes with a non-empty row.
        self._rows = [0] * self.n
        self._transpose = [0] * self.n
        self._nonempty_rows = 0
        for j, state in enumerate(self._states):
            self._refresh_row(j, state._halt_mask)
        # Round-scoped fold inputs, rebuilt by begin_round.
        self._est_mask = 0
        self._order: list[tuple[Value, int]] = []
        self._sortable = True
        self._round: Round = 0
        self._active = False
        # Bit k set iff the kernel may claim round k; per receiver, the
        # detector log claimed rounds write.
        self._plane_rounds = plane_rounds
        self._fd_logs: list[dict[Round, int] | None] = [None] * self.n
        #: The rounds this plane claimed, in order, and the folds they
        #: computed.  Plain counters, never a clock.
        self.claimed_rounds: list[Round] = []
        self.claimed_folds = 0

    # -- kernel-facing round protocol -------------------------------------

    def _refresh_row(self, j: ProcessId, mask: int) -> None:
        """Transpose the bits process *j*'s Halt row *mask* gained since
        its last refresh (the one row refresh)."""
        rows = self._rows
        added = mask & ~rows[j]
        if added:
            bit = 1 << j
            if not rows[j]:
                self._nonempty_rows |= bit
            while added:
                low = added & -added
                self._transpose[low.bit_length() - 1] |= bit
                added ^= low
            rows[j] = mask

    def send(
        self, k: Round, senders: Sequence[ProcessId], payloads: list
    ) -> bool:
        """Send round *k* for the kernel (nobody decided yet): each
        sender's hash-checked ``state.payload(k)`` into ``payloads[pid][k]``,
        then :meth:`begin_round`.  Returns whether the plane claims *k*;
        ``False`` (the kernel sends) unless *k* is a plane round whose
        ests sort."""
        if not self._plane_rounds >> k & 1:
            return False
        states = self._states
        for pid in senders:
            payload = states[pid].payload(k)
            hash(payload)  # fail fast on unhashable payloads
            payloads[pid][k] = payload
        self.begin_round(k, senders, payloads)
        return self._sortable

    def begin_round(
        self, k: Round, senders: Sequence[ProcessId], payloads: list
    ) -> None:
        """Open round *k*'s receive phase, after its send phase.

        Builds the round's fold inputs from the kernel's payload grid
        (``payloads[pid][k]`` for *senders*; anything not an ESTIMATE
        tuple is skipped): the ESTIMATE-sender mask, the est-sorted
        ``(est, sender_bit)`` order, and those senders' Halt rows.  The
        rows come from the senders' states, never from payloads, so a
        payload that merely reuses the ESTIMATE tag cannot write one;
        post-send they are the rows the round-k ESTIMATE payloads carry,
        which is what makes ``arrived & transpose[pid]`` equal the
        per-receiver ``payload[3] >> pid & 1`` scan.
        """
        states = self._states
        rows = self._rows
        entries: list[tuple[Value, int]] = []
        append = entries.append
        est_mask = 0
        for pid in senders:
            payload = payloads[pid][k]
            if (
                isinstance(payload, tuple) and payload
                and payload[0] == _ESTIMATE
            ):
                bit = 1 << pid
                est_mask |= bit
                append((payload[2], bit))
                row = states[pid]._halt_mask
                if row != rows[pid]:
                    self._refresh_row(pid, row)
        try:
            entries.sort()
            self._sortable = True
        except TypeError:
            # Mutually unorderable ests this round: receivers fall back
            # to the per-receiver scan, which only ever compares values
            # delivered into one inbox.
            self._sortable = False
        self._est_mask = est_mask
        self._order = entries
        self._round = k
        self._active = True

    def claim(
        self,
        k: Round,
        receivers: Sequence[ProcessId],
        current_masks: Sequence[int],
    ) -> int:
        """Run claimed round *k*'s receive phase for every receiver, each
        of which heard ``current_masks[pid]`` of the (ESTIMATE) senders;
        return the number of current-round messages delivered."""
        states = self._states
        transpose = self._transpose
        logs = self._fd_logs
        full = self._full
        sender_mask = self._est_mask
        delivered = folds = 0
        last = None
        for pid in receivers:
            heard = current_masks[pid] & sender_mask
            delivered += heard.bit_count()
            state = states[pid]
            halt = state._halt_mask
            key = (heard, halt, transpose[pid])
            if key != last:
                # A completer's own ESTIMATE is always eligible, so the
                # fold never returns the est argument of this receiver.
                last = key
                result = self._fold(pid, heard, halt, state.est)
                folds += 1
            state._halt_mask, state.est = result
            log = logs[pid]
            if log is not None:
                log[k] = full & ~heard & ~(1 << pid)
        self.claimed_rounds.append(k)
        self.claimed_folds += folds
        return delivered

    def end_round(self) -> None:
        """Close the receive phase (kernel, once per round).

        Outside an open round the plane refuses to answer — state
        updates fall back to the per-receiver path, so automata driven
        directly (tests, replay, the reference kernel) behave exactly
        as unbound ones.
        """
        self._active = False

    # -- automaton-facing state updates ------------------------------------

    def compute_view(
        self, state: "EstimateState", k: Round, view: "RoundView"
    ) -> None:
        """The paper's ``compute()`` for *state*, batched.

        Byte-equivalent to ``state.compute_view(k, view)`` — the
        per-receiver cost is a handful of word ops plus the first-hit
        walk of the round's est-sorted order.  Falls back to the
        per-receiver scan when the plane is not mid-round *k* or the
        round's ests resisted the global sort.
        """
        if not self._active or k != self._round or not self._sortable:
            state.compute_view(k, view)
            return
        state._halt_mask, state.est = self._fold(
            state.pid, view.current_mask, state._halt_mask, state.est
        )

    def _fold(
        self, pid: ProcessId, heard: int, halt_mask: int, est: Value
    ) -> tuple[int, Value]:
        """The one batched ``compute()`` fold: the updated Halt row and
        est of receiver *pid* (Halt row *halt_mask*, estimate *est*)
        that heard the senders in *heard* this round."""
        arrived = self._est_mask & heard
        halt_mask |= (
            (self._full & ~arrived & ~(1 << pid))   # suspected now
            | (arrived & self._transpose[pid])      # suspecting me
        )
        eligible = arrived & ~halt_mask
        if eligible:
            for value, bit in self._order:
                if eligible & bit:
                    return halt_mask, value
        return halt_mask, est

    def log_suspicions(self, pid: ProcessId, log: dict[Round, int]) -> None:
        """Have claimed rounds write *pid*'s suspected-set mask (senders
        not heard this round, itself excluded) into ``log[k]``."""
        self._fd_logs[pid] = log

    def round2_stats(
        self, k: Round, view: "RoundView"
    ) -> "tuple[int, bool, Value] | None":
        """The Figure-4 failure-free fast path's fold, batched.

        Returns ``(count, any_halt_nonempty, min_est)`` over the view's
        current-round ESTIMATE items — count and taint are word ops on
        the round's global masks, ``min_est`` the first-hit walk of the
        est order (``None`` only when ``count`` is 0, no halt exclusion:
        the fast path folds over *all* arrived ESTIMATE items).
        Returns ``None`` when the plane is not mid-round *k* or the
        round's ests resisted the global sort (callers fall back to
        their local scan).
        """
        if not self._active or k != self._round or not self._sortable:
            return None
        arrived = self._est_mask & view.current_mask
        count = arrived.bit_count()
        if not count:
            return (0, False, None)
        tainted = bool(arrived & self._nonempty_rows)
        best: Value = None
        for est, bit in self._order:
            if arrived & bit:
                best = est
                break
        return (count, tainted, best)


def build_run_plane(
    automata: Sequence["Automaton"],
) -> Phase1Plane | None:
    """Build and bind one plane for *automata*, or ``None``.

    The plane's rounds are those every automaton class in the run lists
    in :meth:`~repro.algorithms.base.Automaton.phase1_plane_rounds`;
    when they share none (an empty run, or any class keeping the base
    class's ``()``) the run keeps the per-automaton delivery path.  The
    plane is bound into each automaton via
    :meth:`~repro.algorithms.base.Automaton.bind_phase1_plane` and
    returned for the kernel's per-round dispatch.
    """
    rounds = -1 if automata else 0
    for cls, t in {(type(a), a.t): None for a in automata}:
        rounds &= mask_of(cls.phase1_plane_rounds(t))
    if not rounds:
        return None
    plane = Phase1Plane(tuple(a.state for a in automata), rounds)  # type: ignore[attr-defined]
    for automaton in automata:
        automaton.bind_phase1_plane(plane)
    return plane
