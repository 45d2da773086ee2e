"""Shared primitive types and conventions.

Conventions used throughout the package:

* **Process ids** are 0-based integers ``0 .. n-1``.  The paper's process
  :math:`p_i` corresponds to id ``i - 1``.
* **Rounds** are 1-based integers, matching the paper: the first round of a
  run is round 1.
* **Values** (consensus proposals / decisions) may be any hashable,
  totally-ordered Python objects; the tests mostly use small integers.
* **Payloads** are hashable tuples, so that process *views* — the sequence
  of payloads a process sent and received — can be compared exactly across
  runs.  View equality is the engine of the paper's indistinguishability
  arguments.
"""

from __future__ import annotations

from typing import Any, Hashable

ProcessId = int
Round = int
Value = Any
Payload = Hashable

# Sentinel for the "bottom" new-estimate value exchanged in Phase 2 of the
# paper's algorithm A_{t+2}.  A dedicated singleton (rather than ``None``)
# keeps "no message" and "message carrying bottom" distinct.


class _Bottom:
    """The ⊥ value of the paper (singleton)."""

    _instance: "_Bottom | None" = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self):
        return (_Bottom, ())


BOTTOM = _Bottom()


def is_bottom(value: Any) -> bool:
    """Return True iff *value* is the ⊥ sentinel."""
    return value is BOTTOM


def validate_system_size(n: int, t: int) -> None:
    """Validate the basic system parameters shared by all models.

    The paper assumes ``n >= 3`` processes of which at most ``t`` may crash.
    Individual algorithms impose their own resilience bounds (e.g.
    ``0 < t < n/2`` for A_{t+2}); this helper only checks the universally
    required shape.
    """
    if not isinstance(n, int) or not isinstance(t, int):
        raise TypeError(f"n and t must be ints, got n={n!r}, t={t!r}")
    if n < 1:
        raise ValueError(f"need at least one process, got n={n}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got t={t}")
    if t >= n:
        raise ValueError(f"t must be smaller than n, got n={n}, t={t}")


def validate_indulgent_resilience(n: int, t: int) -> None:
    """Check the indulgent resilience requirement ``0 < t < n/2``.

    [Chandra & Toueg 1996] showed a majority of correct processes is
    necessary for consensus with unreliable failure detection; the paper
    additionally excludes ``t = 0`` (decision is trivially possible in one
    round, see its footnote 4).
    """
    validate_system_size(n, t)
    if t == 0:
        raise ValueError(
            "t = 0 is excluded: processes may decide on p1's proposal "
            "after a single exchange (paper, footnote 4)"
        )
    if 2 * t >= n:
        raise ValueError(
            f"indulgent consensus requires t < n/2 (got n={n}, t={t}); "
            "see the resilience-price demonstration in "
            "benchmarks/bench_resilience.py"
        )
