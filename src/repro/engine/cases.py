"""Concrete executable cases for the batch engine.

A :class:`Case` pins down one run completely: which algorithm (by registry
name), which adversary schedule, and which proposals.  Cases are plain
frozen dataclasses so that a worker process can receive one over a
``multiprocessing`` pipe and execute it without any shared state: the
worker resolves the automaton factory from the registry by name.

A case names its schedule by a
:class:`~repro.engine.grids.ScheduleRecipe`, and ``case.schedule``
builds it on first read, so a case answered from the result cache never
builds one.  A recipe pickles as its build inputs, so the worker that
runs the case builds its schedule.  Recipes compare, hash and print by
those inputs, so cases do too, and none of that builds a schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.model.schedule import Schedule
from repro.types import Value

if TYPE_CHECKING:
    from repro.engine.grids import ScheduleRecipe


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
        recipe: the recipe of the adversary schedule to execute against.
        proposals: one proposal per process.
    """

    index: int
    algorithm: str
    workload: str
    recipe: "ScheduleRecipe"
    proposals: tuple[Value, ...]

    @property
    def schedule(self) -> Schedule:
        """The adversary schedule, built by the recipe on first read."""
        return self.recipe.build()
