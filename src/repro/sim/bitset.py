"""Bitmask process sets and the canonical-set interning tables.

At n = 1000 the kernel's per-round bookkeeping is dominated by small-set
churn: present/absent sender sets, crash sets and suspicion (Halt) rows
are rebuilt as fresh ``frozenset`` objects every round, for every
receiver.  This module gives the data plane one flat representation —
a plain ``int`` used as a bitmask, bit ``i`` standing for process ``i``
— plus the interning tables that materialize *canonical* ``frozenset``
objects from masks only when an algorithm (or a trace consumer) needs
the set form.

Masks are the working representation: complement, union, difference and
membership are single machine-word operations (``&``, ``|``, ``~``,
shifts) and ``int.bit_count`` replaces ``len``.  Frozensets remain the
*boundary* representation — payload tuples, traces and the public
algorithm state keep their documented types — but every materialization
goes through :func:`interned_set`, so structurally equal sets are one
shared object for the lifetime of the process instead of a new
allocation per round per receiver.

The tables are bounded (``_CACHE_CAP`` entries each): past the cap,
lookups still dedupe against what is cached but new shapes are built
uncached, so a pathological sweep cannot grow the tables without bound.
:func:`intern_values` is the same idea for *value* sets (FloodSet's
``W``), whose elements are arbitrary hashables rather than pids — keyed
by the set itself rather than a mask.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence, TypeVar

from repro.types import ProcessId

__all__ = [
    "full_mask",
    "mask_of",
    "iter_bits",
    "select_bits",
    "interned_set",
    "intern_values",
]

_T = TypeVar("_T")

#: Maps a mask's binary digits to the 0/1 selector bytes of
#: :func:`select_bits`.
_DIGIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")

#: Per-table entry cap; beyond it sets are built uncached (no eviction —
#: the first shapes seen are overwhelmingly the recurring ones).
_CACHE_CAP = 1 << 16

_FULL_MASKS: dict[int, int] = {}
_SET_CACHE: dict[int, frozenset] = {0: frozenset()}
_VALUE_CACHE: dict[frozenset, frozenset] = {}


def full_mask(n: int) -> int:
    """The all-processes mask for an n-process system: n low bits set."""
    mask = _FULL_MASKS.get(n)
    if mask is None:
        mask = _FULL_MASKS[n] = (1 << n) - 1
    return mask


def mask_of(pids: Iterable[ProcessId]) -> int:
    """The bitmask with exactly the bits in *pids* set."""
    mask = 0
    for pid in pids:
        mask |= 1 << pid
    return mask


def iter_bits(mask: int) -> Iterator[ProcessId]:
    """The set bit indices of *mask*, ascending — pids of a mask set."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def select_bits(items: Sequence[_T], mask: int) -> Iterator[_T]:
    """``items[i]`` for every set bit ``i`` of *mask*, ascending.

    One C-level pass over the mask's binary digits: for the dense masks
    of a delivery round it is several times faster than
    :func:`iter_bits`, whose per-bit big-int arithmetic grows with the
    mask's width.
    """
    digits = bin(mask)[:1:-1].encode()  # least significant bit first
    return compress(items, digits.translate(_DIGIT_SELECTORS))


def interned_set(mask: int) -> frozenset[ProcessId]:
    """The canonical ``frozenset`` of *mask*'s bit indices.

    Structurally equal masks return the *same* frozenset object, so a
    suspicion row or absent-sender set materialized by every receiver in
    a round costs one shared allocation, and downstream equality checks
    are usually pointer comparisons.
    """
    cached = _SET_CACHE.get(mask)
    if cached is not None:
        return cached
    built = frozenset(iter_bits(mask))
    if len(_SET_CACHE) < _CACHE_CAP:
        _SET_CACHE[mask] = built
    return built


def intern_values(values: frozenset) -> frozenset:
    """The canonical object for a *value* frozenset (FloodSet ``W`` sets).

    Value sets hold arbitrary hashables, so the key is the set itself:
    the first instance of each distinct set becomes the canonical one
    and every structurally equal union thereafter dedupes onto it.
    """
    cached = _VALUE_CACHE.get(values)
    if cached is not None:
        return cached
    if len(_VALUE_CACHE) < _CACHE_CAP:
        _VALUE_CACHE[values] = values
    return values
