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
  order — is derived once, from the kernel's filled
  :class:`~repro.sim.view.SendTable` (:meth:`Phase1Plane.begin_round`)
  or while the plane runs the send phase itself
  (:meth:`Phase1Plane.send`, below).  A receiver's arrived-ESTIMATE
  set is then a single word op — ``est_mask & heard`` — because each
  sender broadcasts exactly one payload per round.
* **An incrementally-maintained bit-transpose of the Halt matrix.**
  ``suspecting-me`` for receiver i is "which arrived senders carry i in
  their round-k Halt payload".  Payload Halt masks equal the senders'
  state rows (``EstimateState._halt_mask``) at send time, so the plane
  keeps ``transpose[i]`` = the mask of processes whose Halt row
  contains i, and the per-receiver query collapses to ``arrived &
  transpose[i]`` — one word op instead of n per-payload bit tests, and
  no Halt frozenset is built.  Halt rows are monotone and change
  rarely; the one row refresh re-transposes **only the bits a row
  gained** — every row's in ``begin_round``, each sender's in ``send``
  (no other process can be in an arrived mask).
* **First-hit min-est fold.**  With the round's ``(est, sender_bit)``
  entries pre-sorted (tuple order: est first, ascending sender bit on
  ties — exactly the strict-``<`` first-minimal fold's tie-break), each
  receiver's new estimate is the first entry whose sender is delivered
  and outside its updated Halt mask — usually the very first entry.
  Rounds whose est values are mutually unorderable (the sort raises
  ``TypeError``) mark themselves unsorted and every receiver falls back
  to the exact per-receiver scan, which only compares values that
  actually meet in one inbox.

The plane is **opt-in and run-scoped**.  Automata declare the protocol
via :attr:`~repro.algorithms.base.Automaton.phase1_plane_protocol`;
:func:`build_run_plane` builds and binds one plane per execution only
when *every* automaton in the run speaks it (a mixed run keeps the
per-automaton ``deliver_view`` path).  The kernel **claims** round k —
calls :meth:`Phase1Plane.claim` and no ``deliver_view`` at all — when no
process has decided yet (so no DECIDE payload exists, current or
delayed, and nobody has halted), the round's ests sorted, and k is a
plane round of every automaton class in the run
(:meth:`~repro.algorithms.base.Automaton.phase1_plane_rounds`: rounds
1..t+1 for A_{t+2} and A_◇S, the same without round 2, where Figure 4's
fast path runs, for its optimized variant, and 1..t for FloodSetWS,
which decides in round t+1).  Every send of such a round is the
sender's ``state.payload(k)``, so in lean runs :meth:`Phase1Plane.send`
writes the payload grid itself: no automaton ``payload``, send table or
``begin_round`` runs (full traces and unsorted rounds keep them).
``claim`` folds each completer from its plan mask, reusing the previous
receiver's fold while heard mask, Halt row and transpose row repeat
(exact: a completer hears its own ESTIMATE, so nothing else of it
enters the fold; :attr:`Phase1Plane.claimed_folds` counts the folds),
writes A_◇S's detector history (:meth:`Phase1Plane.log_suspicions`)
and appends k to :attr:`Phase1Plane.claimed_rounds`.  Other rounds run
:meth:`Phase1Plane.begin_round` / :meth:`Phase1Plane.end_round` around
the receive phase, and bound automata call
:meth:`Phase1Plane.compute_view`, the same fold on the view's mask,
which falls back to the exact per-receiver
:meth:`~repro.algorithms.suspicion.EstimateState.compute_view` whenever
the plane is not mid-round (direct ``deliver_view`` calls, the tests'
reference kernel) — so every entry point computes the identical update
and the byte-identity suite holds the kernel to the reference kernel in
both trace modes.

Protocol contract (what declaring ``PHASE1_ESTIMATE`` promises): the
automaton owns an :class:`~repro.algorithms.suspicion.EstimateState`
at ``self.state`` for the run's lifetime, its Phase-1 broadcasts are
``state.payload(k)`` (or non-ESTIMATE payloads, e.g. DECIDE; in its
plane rounds, while undecided, always ``state.payload(k)``), all
Phase-1 state changes go through ``compute_view``, and in its plane
rounds an undecided process's receive phase is ``compute()`` and
nothing else.  The row refresh absorbs out-of-band halt-row changes
*between* rounds, but mid-round mutation outside the plane would
desynchronize the transpose — the invariant
``tests/algorithms/test_phase1_plane.py`` drives against the
per-receiver oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.sim.bitset import full_mask, mask_of, select_bits
from repro.types import ProcessId, Round, Value

if TYPE_CHECKING:  # runtime stays decoupled from the algorithm layer
    from repro.algorithms.base import Automaton
    from repro.algorithms.suspicion import EstimateState
    from repro.sim.view import RoundView, SendTable

__all__ = ["PHASE1_ESTIMATE", "Phase1Plane", "build_run_plane"]

#: The one plane protocol this module implements (see the module
#: docstring for the contract an automaton accepts by declaring it).
PHASE1_ESTIMATE = "phase1/estimate"

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
        # Round-scoped fold inputs, rebuilt by begin_round or send.
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
        """Send round *k* for the kernel (lean runs, nobody decided): each
        sender's hash-checked ``state.payload(k)`` into ``payloads[pid][k]``,
        its Halt row refreshed, the fold inputs built.  ``False`` (the
        kernel sends) unless *k* is a plane round whose ests sort."""
        if not self._plane_rounds >> k & 1:
            return False
        states = self._states
        rows = self._rows
        entries: list[tuple[Value, int]] = []
        est_mask = 0
        for pid in senders:
            state = states[pid]
            payload = state.payload(k)
            hash(payload)  # fail fast on unhashable payloads
            payloads[pid][k] = payload
            est_mask |= 1 << pid
            entries.append((state.est, 1 << pid))
            if state._halt_mask != rows[pid]:
                self._refresh_row(pid, state._halt_mask)
        try:
            entries.sort()
        except TypeError:
            return False  # the kernel re-sends; begin_round marks it unsorted
        self._est_mask = est_mask
        self._order = entries
        self._round = k
        self._sortable = self._active = True
        return True

    def begin_round(self, k: Round, table: "SendTable") -> bool:
        """Open round *k*'s receive phase (kernel, unless :meth:`send` ran).

        Re-transposes exactly the Halt rows that changed since the last
        refresh, then derives the round's global fold inputs from the
        filled send *table*: the ESTIMATE-broadcaster mask and the
        est-sorted ``(est, sender_bit)`` order.  Runs *after* the send
        phase, so the refreshed rows are the rows the round-k ESTIMATE
        payloads carry — which is what makes ``arrived &
        transpose[pid]`` equal the per-receiver ``payload[3] >> pid & 1``
        scan.  Returns whether *k* is a plane round whose ests sorted,
        i.e. one the kernel may :meth:`claim`.
        """
        rows = self._rows
        for j, state in enumerate(self._states):
            if state._halt_mask != rows[j]:
                self._refresh_row(j, state._halt_mask)
        # The round's ESTIMATE broadcasters and their ests, in one walk
        # of the send table.  Built in ascending sender order, so the
        # tuple sort's tie-break (equal ests compare on the int bit)
        # ranks equal-est senders ascending — the first entry a
        # receiver's eligibility mask hits is exactly the value object
        # its strict-< first-minimal fold would keep.
        items = table.items
        entries: list[tuple[Value, int]] = []
        est_mask = 0
        mask = table.sender_mask
        if table.single_tag == _ESTIMATE:
            est_mask = mask
            entries = [
                (payload[2], 1 << sender)
                for sender, payload in select_bits(items, mask)
            ]
        elif mask:
            tags = table.tags
            while mask:
                low = mask & -mask
                sender = low.bit_length() - 1
                if tags[sender] == _ESTIMATE:
                    est_mask |= low
                    item = items[sender]
                    assert item is not None
                    entries.append((item[1][2], low))
                mask ^= low
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
        return self._sortable and bool(self._plane_rounds >> k & 1)

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

    The batched dispatch engages only when **every** automaton in the
    run declares the (one) known protocol — a mixed run keeps the
    untouched per-automaton delivery path.  On success the plane, whose
    plane rounds are those every automaton class in the run declares,
    is bound into each automaton via
    :meth:`~repro.algorithms.base.Automaton.bind_phase1_plane` and
    returned for the kernel's per-round dispatch.
    """
    if not automata:
        return None
    classes: dict = {}
    for automaton in automata:
        if type(automaton).phase1_plane_protocol != PHASE1_ESTIMATE:
            return None
        classes[type(automaton), automaton.t] = None
    rounds = -1
    for cls, t in classes:
        rounds &= mask_of(cls.phase1_plane_rounds(t))
    plane = Phase1Plane(tuple(a.state for a in automata), rounds)  # type: ignore[attr-defined]
    for automaton in automata:
        automaton.bind_phase1_plane(plane)
    return plane
