"""Concrete executable cases for the batch engine.

A :class:`Case` pins down one run completely: which algorithm (by registry
name), which adversary schedule, and which proposals.  Cases are plain
frozen dataclasses so that a worker process can receive one over a
``multiprocessing`` pipe and execute it without any shared state: the
worker resolves the automaton factory from the registry by name.

A case's schedule may be given as a
:class:`~repro.engine.grids.ScheduleRecipe` instead of a
:class:`~repro.model.schedule.Schedule`: ``case.schedule`` then builds
it on first read, so a case answered from the result cache never builds
one.  A case pickles with its source as given, and a recipe pickles as
its build inputs, so the worker that runs the case builds its schedule.
Cases compare, hash and print by their source, so none of that builds
a schedule either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence, Union

from repro.model.schedule import Schedule
from repro.types import Value

if TYPE_CHECKING:
    from repro.engine.grids import ScheduleRecipe

#: What a case's ``schedule`` field is given: a schedule, or its recipe.
ScheduleSource = Union[Schedule, "ScheduleRecipe"]


class _ScheduleField:
    """``Case.schedule``: stored as given, a recipe built on first read."""

    def __get__(self, case: "Case | None", owner: Any = None) -> Schedule:
        if case is None:
            raise AttributeError("schedule")  # the field has no default
        source = case.source
        return source if isinstance(source, Schedule) else source.build()

    def __set__(self, case: "Case", source: ScheduleSource) -> None:
        # Reached only from the generated __init__: the case is frozen.
        case.__dict__["source"] = source


@dataclass(frozen=True, eq=False, repr=False)
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
        schedule: the adversary schedule to execute against, given as a
            :class:`Schedule` or as the recipe that builds it on first
            read (:attr:`source` is what was given).
        proposals: one proposal per process.
    """

    index: int
    algorithm: str
    workload: str
    schedule: _ScheduleField = _ScheduleField()
    proposals: tuple[Value, ...]

    @property
    def source(self) -> ScheduleSource:
        """The schedule or recipe this case was given, never building it."""
        source: ScheduleSource = self.__dict__["source"]
        return source

    # Compared, hashed and printed by the source, so none of it builds.
    def _fields(self) -> tuple[Any, ...]:
        return (
            self.index, self.algorithm, self.workload, self.source,
            self.proposals,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Case) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        names = ("index", "algorithm", "workload", "schedule", "proposals")
        pairs = zip(names, self._fields())
        return f"Case({', '.join(f'{n}={v!r}' for n, v in pairs)})"


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
