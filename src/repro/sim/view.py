"""Round views: the structured inbox the kernel hands each automaton.

Before this layer, the kernel delivered a flat, canonically sorted tuple
of :class:`~repro.model.messages.Message` objects, and every automaton
re-derived the same structure from it each round: filter to the current
round, dispatch on the payload tag, collect the sender set for
suspicion, scan for DECIDE messages.  Across ~10 algorithms that was
3–7 passes over every inbox — and at n = 100 an inbox is 100 messages,
delivered to 100 receivers, every round.

A :class:`RoundView` is that structure computed *once*, straight from
the compiled plan (:mod:`repro.sim.compiled`), before the automaton
runs:

* ``current`` — the round-k ``(sender, payload)`` items, ascending by
  sender (the canonical delivery order restricted to one round);
* ``tagged(tag)`` — the current-round items pre-partitioned by payload
  tag;
* ``delayed`` — earlier-round ``(sent_round, sender, payload)`` triples
  whose delayed delivery lands in this round;
* ``current_mask`` / ``absent_mask`` — the present/absent sender sets as
  int bitmasks, the one representation of "who was heard";
* ``decides`` — every DECIDE payload in the delivery, in canonical
  message order, so the universal decide-adoption protocol is one tuple
  iteration instead of a full-inbox scan.

Message objects are materialized lazily (:attr:`RoundView.messages`):
an automaton that only touches the structured accessors never pays for
them, which is where most of the large-n delivery speedup comes from.

On the kernel path (:meth:`RoundView.lazy`) a view carries only its
arrived-sender *mask* — one ``&`` of the compiled plan's per-receiver
mask against the :class:`SendTable`'s broadcaster mask — and a
:class:`CurrentCell` that materializes the ``(sender, payload)``
buckets on first structured access.  The kernel keys cells by that
mask, so all receivers that heard the same senders share one cell per
round (in an all-to-all round, one cell for everybody), and delayed
buckets are likewise shared per distinct delayed row.  A receiver whose
round consumes only masks never builds its bucket set, and a round the
run plane claims (:mod:`repro.sim.phase1_plane`) builds no view at all
outside full-trace mode.  The DECIDE scan stays O(1) on
bucket-free rounds: the send table already knows whether *any*
broadcast this round was a DECIDE, so :attr:`RoundView.decides`
materializes buckets only in announcement rounds (plus whatever delayed
DECIDEs the eager delayed bucket carries).  Payload tags are classified
once per broadcast, when the kernel fills the send table, not once per
receiver.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.model.messages import Message, fast_message
from repro.sim.bitset import full_mask, interned_set, select_bits
from repro.types import Payload, ProcessId, Round

__all__ = [
    "CurrentCell", "RoundView", "SendTable", "all_pids",
    "build_current_buckets", "build_delayed_buckets",
]

#: The universal decide tag (mirrors ``repro.algorithms.common.DECIDE``;
#: defined here so the view layer never imports the algorithm layer).
_DECIDE = "DECIDE"


def _is_decide_payload(payload: Payload) -> bool:
    """Whether *payload* is a tuple-tagged DECIDE.  Every bucket builder
    must classify decides identically — the byte-identical-across-paths
    invariant hinges on this being the one definition.
    (``SendTable.record`` keeps an inlined copy fused into its tag
    classification; the view tests pin the two against each other.)
    """
    return (
        isinstance(payload, tuple) and bool(payload) and payload[0] == _DECIDE
    )


_ALL_PIDS_CACHE: dict[int, frozenset[int]] = {}


def all_pids(n: int) -> frozenset[ProcessId]:
    """The interned ``frozenset(range(n))`` — suspicion updates build
    absent-sender sets against it every round, so it is cached per n."""
    cached = _ALL_PIDS_CACHE.get(n)
    if cached is None:
        # Held here for the process lifetime, never evicted (unlike
        # bitset's capped cache).
        cached = _ALL_PIDS_CACHE[n] = interned_set(full_mask(n))
    return cached


class RoundView:
    """One receiver's structured round-k delivery.

    Attributes:
        round: the 1-based round the delivery belongs to.
        receiver: the receiving process id.
        n: system size.
        delayed: earlier-round deliveries landing this round, as
            ``(sent_round, sender, payload)`` triples in canonical order.
        current: round-``round`` deliveries as ``(sender, payload)``
            pairs, ascending by sender.
        by_tag: the ``current`` items partitioned by payload tag (first
            tuple element, or the payload itself for non-tuple payloads).
        decides: every DECIDE payload in the whole delivery (delayed and
            current), in canonical message order.
        current_mask: the senders of ``current`` as an int bitmask (bit
            ``i`` set iff process ``i``'s round-k message arrived).

    The bucket attributes may be shared between views of different
    receivers that heard the same senders; views are read-only.

    On the kernel path (:meth:`lazy`) the current-round buckets are not
    built up front: the view carries a :class:`CurrentCell` shared by
    every receiver with the same arrived-sender mask, and ``current`` /
    ``by_tag`` / ``decides`` materialize (once per cell) on first
    access.  Every accessor returns exactly what the eager constructor
    would have been handed, so callers cannot observe which constructor
    built the view.
    """

    __slots__ = (
        "round", "receiver", "n", "delayed", "current_mask", "_current",
        "_by_tag", "_decides", "_cell", "_delayed_decides", "_messages",
    )

    def __init__(
        self,
        round: Round,
        receiver: ProcessId,
        n: int,
        delayed: tuple[tuple[Round, ProcessId, Payload], ...],
        current: tuple[tuple[ProcessId, Payload], ...],
        by_tag: dict,
        decides: tuple[Payload, ...],
        current_mask: int,
    ):
        self.round = round
        self.receiver = receiver
        self.n = n
        self.delayed = delayed
        self.current_mask = current_mask
        self._current = current
        self._by_tag = by_tag
        self._decides = decides
        self._cell = None
        self._delayed_decides = ()
        self._messages = None

    @classmethod
    def lazy(
        cls,
        round: Round,
        receiver: ProcessId,
        n: int,
        delayed: tuple[tuple[Round, ProcessId, Payload], ...],
        delayed_decides: tuple[Payload, ...],
        cell: "CurrentCell",
    ) -> "RoundView":
        """A kernel-path view whose current buckets build on demand.

        The view's ``current_mask`` is the cell's mask, so mask-only
        consumers never trigger the build.
        """
        view = cls.__new__(cls)
        view.round = round
        view.receiver = receiver
        view.n = n
        view.delayed = delayed
        view.current_mask = cell.mask
        view._current = None
        view._by_tag = None
        view._decides = None
        view._cell = cell
        view._delayed_decides = delayed_decides
        view._messages = None
        return view

    def _materialize(self) -> None:
        """Pull the shared buckets out of the cell (lazy views)."""
        current, by_tag, decides = self._cell.built()
        self._current = current
        self._by_tag = by_tag
        # Canonical delivery order: delayed messages sort ahead of
        # current-round ones, exactly as the eager construction
        # concatenates them.
        self._decides = self._delayed_decides + decides

    # -- structured accessors ------------------------------------------------

    @property
    def current(self) -> tuple[tuple[ProcessId, Payload], ...]:
        current = self._current
        if current is None:
            self._materialize()
            current = self._current
        return current

    @property
    def by_tag(self) -> dict:
        by_tag = self._by_tag
        if by_tag is None:
            self._materialize()
            by_tag = self._by_tag
        return by_tag

    @property
    def decides(self) -> tuple[Payload, ...]:
        decides = self._decides
        if decides is None:
            if self._cell.table.has_decides:
                self._materialize()
                decides = self._decides
            else:
                # No broadcast this round was a DECIDE, so the whole
                # delivery's decides are the delayed ones — resolved
                # without building the current buckets.
                decides = self._decides = self._delayed_decides
        return decides

    def tagged(self, tag: object) -> tuple[tuple[ProcessId, Payload], ...]:
        """Current-round ``(sender, payload)`` items carrying *tag*."""
        by_tag = self._by_tag
        if by_tag is None:
            self._materialize()
            by_tag = self._by_tag
        return by_tag.get(tag, ())

    @property
    def absent_mask(self) -> int:
        """Processes from which no current-round message arrived: the
        complement of :attr:`current_mask` within the n-process universe.

        Includes the receiver itself when its own message is missing;
        suspicion call sites clear their own bit, matching the paper's
        "a process never suspects itself".
        """
        return full_mask(self.n) & ~self.current_mask

    @property
    def messages(self) -> tuple[Message, ...]:
        """The flat inbox, in canonical delivery order.

        Materialized on first access (and cached): delayed messages first
        — they sort ahead on ``sent_round`` — then current-round messages
        ascending by sender.  The full-trace kernel records it per
        receiver; automata consume the structured accessors instead.
        """
        messages = self._messages
        if messages is None:
            k = self.round
            receiver = self.receiver
            messages = self._messages = tuple(
                [
                    fast_message(sent_round, sender, receiver, payload)
                    for sent_round, sender, payload in self.delayed
                ]
                + [
                    fast_message(k, sender, receiver, payload)
                    for sender, payload in self.current
                ]
            )
        return messages

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        round: Round,
        receiver: ProcessId,
        n: int,
        entries: Iterable[tuple[Round, ProcessId, Payload]],
    ) -> "RoundView":
        """Build a view from ``(sent_round, sender, payload)`` triples.

        *entries* must already be in canonical delivery order (ascending
        ``(sent_round, sender)``) — the compiled plan's inboxes are.
        """
        delayed: list = []
        current: list = []
        by_tag: dict = {}
        decides: list = []
        sender_mask = 0
        for sent_round, sender, payload in entries:
            if isinstance(payload, tuple) and payload:
                tag = payload[0]
                if _is_decide_payload(payload):
                    decides.append(payload)
            else:
                tag = payload
            if sent_round == round:
                sender_mask |= 1 << sender
                item = (sender, payload)
                current.append(item)
                bucket = by_tag.get(tag)
                if bucket is None:
                    by_tag[tag] = [item]
                else:
                    bucket.append(item)
            else:
                delayed.append((sent_round, sender, payload))
        return cls(
            round, receiver, n,
            tuple(delayed), tuple(current),
            {tag: tuple(items) for tag, items in by_tag.items()},
            tuple(decides), sender_mask,
        )

    @classmethod
    def from_messages(
        cls,
        round: Round,
        receiver: ProcessId,
        n: int,
        messages: Sequence[Message],
    ) -> "RoundView":
        """Build a view from an already-materialized flat inbox.

        How flat inboxes reach the one receive hook: the reference
        kernel wraps each sorted inbox with it, so the oracle shares
        neither the compiled plan nor the lazy buckets with the fast
        path, and tests feed hand-built inboxes through it.  Message
        order is preserved — for kernel-built inboxes that is the
        canonical order; hand-built test inboxes keep whatever order the
        test chose.
        """
        view = cls.from_entries(
            round, receiver, n,
            ((m.sent_round, m.sender, m.payload) for m in messages),
        )
        view._messages = tuple(messages)
        return view

    def shifted(self, offset: Round) -> "RoundView":
        """This delivery re-timestamped *offset* rounds earlier.

        Used to drive a nested automaton that started ``offset`` rounds
        late (A_{t+2}'s underlying consensus module): current items stay
        current, delayed items sent at or before round *offset* are
        dropped (they predate the nested automaton), the remainder shift
        by *offset*.  Requires a delivery with no DECIDE messages — the
        decide-adoption protocol consumes those before any nested
        automaton runs.
        """
        if self.decides:
            raise ValueError(
                "cannot shift a delivery containing DECIDE messages"
            )
        return RoundView(
            self.round - offset, self.receiver, self.n,
            tuple(
                (sent_round - offset, sender, payload)
                for sent_round, sender, payload in self.delayed
                if sent_round > offset
            ),
            self.current, self.by_tag, (), self.current_mask,
        )

    def __repr__(self) -> str:
        return (
            f"RoundView(r{self.round} ->p{self.receiver}: "
            f"{len(self.current)} current, {len(self.delayed)} delayed)"
        )


class CurrentCell:
    """One arrived-sender mask's lazily built current-round buckets.

    The kernel creates one cell per distinct arrived-sender mask per
    round and hands it to every :meth:`RoundView.lazy` view with that
    mask; the first structured access on *any* of them runs
    :func:`build_current_buckets` and the result is shared by the rest.
    Rounds whose receivers consume only masks never trigger the build.

    *mask* must be a subset of the table's broadcaster mask.
    """

    __slots__ = ("table", "mask", "_built")

    def __init__(self, table: "SendTable", mask: int) -> None:
        self.table = table
        self.mask = mask
        self._built: tuple | None = None

    def built(self) -> tuple:
        """The cell's ``(current, by_tag, decides)``, built once."""
        built = self._built
        if built is None:
            built = self._built = build_current_buckets(self.mask, self.table)
        return built


class SendTable:
    """One round's broadcast payloads, structured for bucket building.

    Filled by the kernel *during* the send phase (no extra pass): for
    every process that actually broadcast, the interned ``(sender,
    payload)`` item and the payload tag; plus three round-level facts
    the bucket builders use for their fast paths — the broadcaster
    bitmask, whether the whole round carries a single tag, and whether
    any broadcast is a DECIDE announcement.  All of it is a pure
    function of the round's sends, so every receiver shares one table.

    The table is a preallocated per-run buffer: the kernel allocates one
    per execution and calls :meth:`reset` between rounds, which clears
    only the slots the previous round touched (walking the sender mask),
    so a sparse round costs O(broadcasters), not O(n).
    """

    __slots__ = (
        "items", "tags", "is_decide", "sender_mask", "single_tag",
        "has_decides",
    )

    def __init__(self, n: int):
        self.items: list = [None] * n      # (sender, payload) or None
        self.tags: list = [None] * n       # payload tag, for senders
        self.is_decide: list = [False] * n
        self.sender_mask = 0                # broadcasters as a bitmask
        self.single_tag = None              # the round's tag, if unique
        self.has_decides = False

    def record(self, sender: ProcessId, payload: Payload) -> None:
        """Note that *sender* broadcast *payload* this round."""
        self.items[sender] = (sender, payload)
        if isinstance(payload, tuple) and payload:
            tag = payload[0]
            if tag == _DECIDE:
                self.is_decide[sender] = True
                self.has_decides = True
        else:
            tag = payload
        self.tags[sender] = tag
        if not self.sender_mask:
            self.single_tag = tag
        elif tag != self.single_tag:
            self.single_tag = None
        self.sender_mask |= 1 << sender

    def reset(self) -> None:
        """Clear for the next round, touching only last round's slots."""
        mask = self.sender_mask
        if mask:
            items = self.items
            tags = self.tags
            is_decide = self.is_decide
            while mask:
                low = mask & -mask
                sender = low.bit_length() - 1
                items[sender] = None
                tags[sender] = None
                is_decide[sender] = False
                mask ^= low
        self.sender_mask = 0
        self.single_tag = None
        self.has_decides = False


def build_current_buckets(mask: int, table: SendTable) -> tuple:
    """The current-round buckets ``(current, by_tag, decides)`` of the
    senders in *mask*, which must all have broadcast (*mask* is a
    subset of ``table.sender_mask``).

    The common round shape — every broadcast carries the same tag, none
    of them a DECIDE — collapses to a single walk over *mask*'s bits;
    mixed rounds (coordinator phases, decide announcements) take the
    general partitioning path.
    """
    if not mask:
        return ((), {}, ())
    current = tuple(select_bits(table.items, mask))
    single_tag = table.single_tag
    if single_tag is not None and not table.has_decides:
        return (current, {single_tag: current}, ())
    tags = table.tags
    is_decide = table.is_decide
    by_tag: dict = {}
    decides: list = []
    for item in current:
        sender = item[0]
        if is_decide[sender]:
            decides.append(item[1])
        tag = tags[sender]
        bucket = by_tag.get(tag)
        if bucket is None:
            by_tag[tag] = [item]
        else:
            bucket.append(item)
    return (
        current,
        {tag: tuple(bucket) for tag, bucket in by_tag.items()},
        tuple(decides),
    )


def build_delayed_buckets(
    delayed_plan: Sequence[tuple[Round, int]],
    payloads: Sequence[Sequence[Payload]],
    not_sent: object,
) -> tuple:
    """One delayed row's shared buckets: ``(delayed, decides)``.

    *delayed_plan* is a plan row of ``(sent_round, sender_mask)``
    entries, sorted by sent round; each mask is walked from its low bit
    up, so the items come out in canonical ``(sent_round, sender)``
    order.  *payloads* is the kernel's ``payloads[sender][sent_round]``
    grid with *not_sent* marking senders that never broadcast in the
    message's round (halted before it).
    """
    if not delayed_plan:
        return ((), ())
    delayed: list = []
    decides: list = []
    for sent_round, senders in delayed_plan:
        while senders:
            low = senders & -senders
            senders ^= low
            sender = low.bit_length() - 1
            payload = payloads[sender][sent_round]
            if payload is not_sent:
                continue
            delayed.append((sent_round, sender, payload))
            if _is_decide_payload(payload):
                decides.append(payload)
    return tuple(delayed), tuple(decides)
