"""Concrete executable cases for the batch engine.

A :class:`Case` pins down one run completely: which algorithm (by registry
name), which adversary schedule, and which proposals.  Cases are plain
frozen dataclasses so that a worker process can receive one over a
``multiprocessing`` pipe and execute it without any shared state: the
worker resolves the automaton factory from the registry by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.model.schedule import Schedule
from repro.types import Value


@dataclass(frozen=True)
class Case:
    """One fully-specified run of the batch engine.

    Attributes:
        index: position in the expanded grid.  Record streams are re-sorted
            by this index, which is what makes parallel and serial execution
            produce identical outputs.
        algorithm: registry name (see :mod:`repro.algorithms.registry`),
            resolvable inside a worker process.
        workload: human-readable schedule label; for seeded families the
            label embeds the derived seed so any case can be regenerated.
        schedule: the adversary schedule to execute against.
        proposals: one proposal per process.
    """

    index: int
    algorithm: str
    workload: str
    schedule: Schedule
    proposals: tuple[Value, ...]


def cases_from(
    entries: Iterable[tuple[str, str, Schedule, Sequence[Value]]],
) -> list[Case]:
    """An indexed case list from ``(algorithm, workload, schedule, proposals)``
    tuples, numbered in iteration order — the hand-built counterpart of
    :func:`repro.engine.grids.expand_grid` for ad-hoc grids."""
    return [
        Case(
            index=index,
            algorithm=algorithm,
            workload=workload,
            schedule=schedule,
            proposals=tuple(proposals),
        )
        for index, (algorithm, workload, schedule, proposals)
        in enumerate(entries)
    ]
