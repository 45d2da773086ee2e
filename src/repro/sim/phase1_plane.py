"""The run plane: whole rounds for every receiver at once.

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

Besides these ``compute()`` rounds the plane claims rounds of other
kinds through :class:`RoundFold`\\ s that the algorithm modules define:
A_{t+2}'s round t + 2 (``repro.core.att2``) and every Chandra–Toueg
round (``repro.algorithms.chandra_toueg``), the baseline's and A_{t+2}'s
underlying C's alike.  A fold sends its round from the senders' states
and runs the receive phase for all receivers from their heard masks;
unlike ``compute()`` it may decide.

The plane is **opt-in and run-scoped**.  An automaton class opts in
with :meth:`~repro.algorithms.base.Automaton.plane_rounds` (whose
docstring is the whole contract): its ``compute()`` rounds and the
first round of each fold, as :class:`PlaneRounds`.
:func:`build_run_plane` builds and binds one plane per execution when
the classes in the run share at least one such round.  While no
process has decided (so no DECIDE payload exists, current or delayed,
and nobody has halted) a shared plane round is **claimed** unless its
values do not sort or its fold declines it (A_{t+2} whose C is not
Chandra–Toueg): :meth:`Phase1Plane.send` writes every sender's
payload into the kernel's payload grid, and :meth:`Phase1Plane.claim`
runs the receive phase of every completer from its plan mask and
returns the completers that decided — no automaton ``payload`` or
``deliver_view`` runs, in either trace mode.  A ``compute()`` claim
reuses the previous receiver's fold while heard mask, Halt row and
transpose row repeat (exact: a completer hears its own ESTIMATE, so
nothing else of it enters the fold; :attr:`Phase1Plane.claimed_folds`
counts the folds).  Every claim writes A_◇S's detector history
(:meth:`Phase1Plane.log_suspicions`) and appends k to
:attr:`Phase1Plane.claimed_rounds` (:meth:`Phase1Plane.round_kind`
names its kind).  Every other round the automata send, the kernel
opens it with :meth:`Phase1Plane.begin_round` and closes it with
:meth:`Phase1Plane.end_round`, and bound automata call
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

from typing import TYPE_CHECKING, Collection, Sequence

from repro.sim.bitset import full_mask, mask_of
from repro.types import ProcessId, Round, Value

if TYPE_CHECKING:  # runtime stays decoupled from the algorithm layer
    from repro.algorithms.base import Automaton
    from repro.algorithms.suspicion import EstimateState
    from repro.sim.view import RoundView

__all__ = ["Phase1Plane", "PlaneRounds", "RoundFold", "build_run_plane"]

#: The ESTIMATE payload tag (mirrors ``repro.algorithms.suspicion.
#: ESTIMATE``; defined here so the plane's hot loop never imports the
#: algorithm layer — same idiom as ``view._DECIDE``).
_ESTIMATE = "ESTIMATE"

#: :meth:`Phase1Plane.round_kind` of a ``compute()`` round.
PHASE1 = "phase1"


class RoundFold:
    """A kind of round the plane claims besides ``compute()``.

    Defined by the algorithm module whose round it is, and declared in
    :class:`PlaneRounds`.  Both hooks run only while no process has
    decided, so every sender is undecided and sends its own round
    payload.
    """

    __slots__ = ()

    #: The kind's name, as :meth:`Phase1Plane.round_kind` reports it.
    kind = ""

    def send(
        self, plane: "Phase1Plane", k: Round,
        senders: Sequence[ProcessId], payloads: list,
    ) -> object:
        """Write each sender's round-*k* payload (what its ``payload(k)``
        returns, DUMMY for ``None``, hash-checked) into
        ``payloads[pid][k]`` and return the round's fold input, or
        ``None`` to leave the round to the automata: before touching any
        state when the round is not this fold's to claim, or after the
        sends (which the automata then repeat) when its values do not
        sort."""
        raise NotImplementedError

    def claim(
        self, plane: "Phase1Plane", k: Round, opened: object,
        receivers: Sequence[ProcessId], current_masks: Sequence[int],
    ) -> int:
        """Run round *k*'s receive phase for *receivers*, each of which
        heard ``current_masks[pid]`` of the senders, from *opened* (what
        :meth:`send` returned); return the mask of those that decided."""
        raise NotImplementedError


class PlaneRounds:
    """What one automaton class lets the plane claim
    (:meth:`~repro.algorithms.base.Automaton.plane_rounds`).

    Attributes:
        compute: the rounds whose receive phase is ``compute()``.
        folds: ``(first round, fold)`` pairs by ascending first round;
            a fold claims its first round and every later round up to
            the next fold's first, except ``compute`` rounds.
    """

    __slots__ = ("compute", "folds")

    def __init__(
        self,
        compute: Collection[Round] = (),
        folds: tuple[tuple[Round, RoundFold], ...] = (),
    ) -> None:
        self.compute = compute
        self.folds = folds


class Phase1Plane:
    """One run's shared plane (see the module docstring).

    Holds every process's ``(est, halt_mask)`` row by reference to the
    automata's own :class:`~repro.algorithms.suspicion.EstimateState`
    objects — the plane writes the same state the per-receiver path
    would, so Phase 2 and the Figure-4 fast path read estimates and
    Halt masks exactly as before — and the automata themselves, whose
    state the folds write.
    """

    __slots__ = (
        "n", "automata", "_states", "_full", "_rows", "_transpose",
        "_nonempty_rows", "_est_mask", "_order", "_sortable", "_round",
        "_active", "_plane_rounds", "_folds", "_round_fold", "_opened",
        "_fd_logs", "_logging", "claimed_rounds", "claimed_folds",
    )

    def __init__(
        self,
        states: Sequence["EstimateState"],
        plane_rounds: int = 0,
        folds: Sequence[tuple[Round, RoundFold]] = (),
        automata: Sequence["Automaton"] = (),
    ) -> None:
        self.automata = tuple(automata)
        self.n = len(self.automata) or len(states)
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
        # Round-scoped fold inputs, rebuilt by begin_round (and by a
        # fold's send: the round's fold and its input).
        self._est_mask = 0
        self._order: list[tuple[Value, int]] = []
        self._sortable = True
        self._round: Round = 0
        self._active = False
        self._round_fold: RoundFold | None = None
        self._opened: object = None
        # Bit k set iff the kernel may claim round k as compute(); the
        # declared folds; per receiver, the detector log claims write.
        self._plane_rounds = plane_rounds
        self._folds = tuple(folds)
        self._fd_logs: list[dict[Round, int] | None] = [None] * self.n
        self._logging = False
        #: The rounds this plane claimed, in order, and the compute()
        #: folds they computed.  Plain counters, never a clock.
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

    def _fold_at(self, k: Round) -> RoundFold | None:
        """The declared fold that owns round *k*, if any."""
        owner = None
        for first, fold in self._folds:
            if first > k:
                break
            owner = fold
        return owner

    def round_kind(self, k: Round) -> str | None:
        """What kind of round *k* is to this plane: ``"phase1"`` for a
        ``compute()`` round, a fold's :attr:`RoundFold.kind`, or ``None``
        for a round the plane never claims."""
        if self._plane_rounds >> k & 1:
            return PHASE1
        fold = self._fold_at(k)
        return None if fold is None else fold.kind

    def send(
        self, k: Round, senders: Sequence[ProcessId], payloads: list
    ) -> bool:
        """Send round *k* for the kernel (nobody decided yet) and return
        whether the plane claims it; ``False`` (the kernel sends) unless
        *k* is a plane round whose values sort.

        A ``compute()`` round writes each sender's hash-checked
        ``state.payload(k)`` into ``payloads[pid][k]``, then runs
        :meth:`begin_round`; any other plane round is its fold's
        :meth:`RoundFold.send`.
        """
        if not self._plane_rounds >> k & 1:
            fold = self._fold_at(k)
            if fold is None:
                return False
            opened = fold.send(self, k, senders, payloads)
            if opened is None:
                return False
            self._round_fold = fold
            self._opened = opened
            mask = 0
            for pid in senders:
                mask |= 1 << pid
            self._est_mask = mask  # every sender's message counts
            return True
        self._round_fold = None
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
        per-receiver ``payload[3] >> pid & 1`` scan.  A plane without
        ``compute()`` state (only folds) never opens a round.
        """
        states = self._states
        if not states:
            return
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
    ) -> tuple[int, int]:
        """Run claimed round *k*'s receive phase for every receiver, each
        of which heard ``current_masks[pid]`` of the senders; return the
        number of current-round messages delivered and the mask of the
        receivers that decided."""
        sender_mask = self._est_mask
        fold = self._round_fold
        if fold is not None:
            deciders = fold.claim(
                self, k, self._opened, receivers, current_masks
            )
            self._round_fold = self._opened = None
        else:
            deciders = 0
            self._claim_compute(receivers, current_masks)
        delivered = 0
        logs = self._fd_logs if self._logging else None
        full = self._full
        for pid in receivers:
            heard = current_masks[pid] & sender_mask
            delivered += heard.bit_count()
            if logs is not None:
                log = logs[pid]
                if log is not None:
                    log[k] = full & ~heard & ~(1 << pid)
        self.claimed_rounds.append(k)
        return delivered, deciders

    def _claim_compute(
        self, receivers: Sequence[ProcessId], current_masks: Sequence[int]
    ) -> None:
        """A claimed ``compute()`` round's state updates."""
        states = self._states
        transpose = self._transpose
        sender_mask = self._est_mask
        folds = 0
        last = None
        for pid in receivers:
            heard = current_masks[pid] & sender_mask
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
        self.claimed_folds += folds

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
        self._logging = True

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

    The plane claims what every automaton class in the run declares in
    :meth:`~repro.algorithms.base.Automaton.plane_rounds`: the
    ``compute()`` rounds they all list, and their folds if they all
    declare the same ones.  When that is nothing (an empty run, or any
    class keeping the base class's ``None``) the run keeps the
    per-automaton delivery path.  The plane is bound into each
    automaton via
    :meth:`~repro.algorithms.base.Automaton.bind_phase1_plane` and
    returned for the kernel's per-round dispatch.
    """
    rounds = -1 if automata else 0
    folds = None
    for cls, t in {(type(a), a.t): None for a in automata}:
        declared = cls.plane_rounds(t)
        if declared is None:
            return None
        rounds &= mask_of(declared.compute)
        if folds is None:
            folds = declared.folds
        elif folds != declared.folds:
            folds = ()
    if not rounds and not folds:
        return None
    plane = Phase1Plane(
        tuple(a.state for a in automata) if rounds else (),  # type: ignore[attr-defined]
        rounds, folds, automata,
    )
    for automaton in automata:
        automaton.bind_phase1_plane(plane)
    return plane
