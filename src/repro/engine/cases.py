"""Concrete executable cases for the batch engine.

A :class:`Case` pins down one run completely: which algorithm (by registry
name), which adversary schedule, and which proposals.  Cases are plain
frozen dataclasses so that a worker process can receive one over a
``multiprocessing`` pipe and execute it without any shared state.

The optional ``factory`` field lets in-process callers (the legacy
:mod:`repro.analysis.sweep` entry points) attach a pre-built automaton
factory that is *not* registered under ``algorithm``.  Such cases are not
generally picklable, so the runner executes them on the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.algorithms.base import AlgorithmFactory
from repro.algorithms.registry import get_factory
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
        factory: optional pre-built factory overriding registry resolution
            (serial execution only).
    """

    index: int
    algorithm: str
    workload: str
    schedule: Schedule
    proposals: tuple[Value, ...]
    factory: AlgorithmFactory | None = field(default=None, compare=False)

    def resolve_factory(self) -> AlgorithmFactory:
        """The automaton factory this case runs: explicit or from the registry."""
        if self.factory is not None:
            return self.factory
        return get_factory(self.algorithm)


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
