"""Message representation for the round-based kernel.

A message is a frozen record of who sent what to whom and in which round.
Messages are hashable and totally ordered so that delivery sets can be
canonically sorted — determinism of the kernel, and hence the soundness of
the view-indistinguishability machinery, depends on this.

``Message`` is slotted (``dataclass(slots=True)``): a large-n round
materializes O(n²) of them, and the slot layout roughly halves their
memory and speeds up the attribute reads the algorithms' receive loops
are made of.  The kernel's hot path additionally bypasses the dataclass
constructor (see :func:`fast_message`), which skips the per-instance
``__post_init__`` hashability probe — the kernel probes each payload
once per send instead, in the send phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.types import Payload, ProcessId, Round

_FIELDS = ("sent_round", "sender", "receiver", "payload")


@dataclass(frozen=True, order=True, slots=True)
class Message:
    """A single point-to-point message.

    Attributes:
        sent_round: the round in which the message was sent (its timestamp;
            the paper assumes every message is tagged with the round number).
        sender: process id of the sender.
        receiver: process id of the receiver.
        payload: the algorithm-level content.  Must be hashable; by
            convention a tuple whose first element is a string tag, e.g.
            ``("ESTIMATE", 3, est, halt_mask)`` (Halt as an int bitmask).
    """

    sent_round: Round
    sender: ProcessId
    receiver: ProcessId
    payload: Payload = field(compare=False)

    def __post_init__(self) -> None:
        hash(self.payload)  # fail fast on unhashable payloads

    @property
    def tag(self) -> Any:
        """The payload tag (first tuple element), or the payload itself."""
        if isinstance(self.payload, tuple) and self.payload:
            return self.payload[0]
        return self.payload

    def __repr__(self) -> str:  # compact, for trace dumps
        return (
            f"Message(r{self.sent_round} {self.sender}->{self.receiver} "
            f"{self.payload!r})"
        )

    # With both ``frozen`` and ``slots`` there is no instance ``__dict__``
    # for pickle's default state protocol, and the frozen ``__setattr__``
    # rejects the fallback slot restoration on Python 3.10 (3.11+ would
    # generate equivalent methods itself).  Explicit state methods keep
    # messages picklable across every supported interpreter — the
    # process-pool backends ship them between workers.

    def __getstate__(self) -> tuple:
        return (self.sent_round, self.sender, self.receiver, self.payload)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(_FIELDS, state):
            object.__setattr__(self, name, value)


_new_message = Message.__new__
_set_field = object.__setattr__


def fast_message(
    sent_round: Round, sender: ProcessId, receiver: ProcessId,
    payload: Payload,
) -> Message:
    """Materialize a :class:`Message` without the dataclass constructor.

    Skips the frozen-dataclass ``__init__`` (one ``object.__setattr__``
    per field *plus* argument parsing) and the per-message
    ``__post_init__`` hashability probe.  Callers own the probe: the
    kernel hashes each payload once in the send phase, so a bad payload
    still fails fast — once per broadcast instead of once per receiver.
    Equality, ordering, hashing and pickling of the result are identical
    to a constructor-built message.
    """
    message = _new_message(Message)
    _set_field(message, "sent_round", sent_round)
    _set_field(message, "sender", sender)
    _set_field(message, "receiver", receiver)
    _set_field(message, "payload", payload)
    return message


DUMMY: Payload = ("DUMMY",)
"""Payload sent when an algorithm has nothing to say in a round.

The paper (footnote 1) assumes processes send messages to all others in
every round, inserting dummy messages when the algorithm generates none;
suspicion semantics ("no round-k message received in round k") rely on this.
"""
