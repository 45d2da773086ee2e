"""Pluggable execution backends for the batch engine.

The engine's unit of work is one :class:`~repro.engine.cases.Case`; an
*executor* is any object with a ``map_cases(cases)`` method yielding
``(case index, record)`` pairs, in **any** order.  The runner
(:mod:`repro.engine.runner`) re-sorts the collected stream by case index,
so an executor's scheduling policy is never observable in the output —
that is the determinism contract that makes backends interchangeable.

Two backends ship with the engine:

* :class:`SerialExecutor` — inline, in-process, zero overhead, one
  schedule group at a time; the reference implementation every other
  backend must match byte-for-byte.
* :class:`ProcessExecutor` — a ``multiprocessing`` pool, one task per
  schedule (:func:`group_by_schedule`).  Cases cross a pipe and name
  their algorithm, which the worker resolves from the registry, and
  carry their schedule's recipe, which the worker builds.

:func:`resolve_executor` maps the CLI's ``--backend`` names to instances;
:func:`resolve_workers` clamps requested pool sizes.  Distributed
sharding composes with either backend: a
:class:`~repro.engine.grids.ShardSpec` slices the expanded grid, each
shard runs under whatever executor its machine prefers, and
:meth:`~repro.engine.results.BatchResult.merge` recombines the exports
canonically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence

from repro.algorithms.registry import get_factory
from repro.analysis.sweep import SweepRecord, run_case
from repro.engine.cases import Case
from repro.errors import ReproError

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

#: CLI names of the stock backends, in documentation order.
BACKENDS = ("serial", "processes")


class ExecutorError(ReproError):
    """An unusable executor configuration (unknown backend, bad pool size)."""


class Executor(Protocol):
    """The execution-backend protocol.

    ``name`` identifies the backend in CLI output and logs; ``map_cases``
    executes every case and yields ``(case index, record)`` pairs in any
    order it likes.  Implementations must be pure transports: the record
    for a case is produced by :func:`execute_case` (or an equivalent
    computation), never altered in flight.
    """

    name: str

    def map_cases(
        self, cases: Sequence[Case]
    ) -> Iterator[tuple[int, SweepRecord]]: ...


def execute_case(case: Case) -> tuple[int, SweepRecord]:
    """Run one case and return its (index, record) pair.

    Module-level (not a closure) so a multiprocessing pool can pickle it.
    The record is stamped with the case's index, making record streams
    self-describing for order-independent recombination.
    """
    record, _trace = run_case(
        case.algorithm,
        get_factory(case.algorithm),
        case.workload,
        case.schedule,
        list(case.proposals),
    )
    return case.index, replace(record, case_index=case.index)


def execute_group(cases: Sequence[Case]) -> list[tuple[int, SweepRecord]]:
    """Run cases that share one schedule; one pool task per schedule.

    The group crosses the pipe in one pickle, so its cases share one
    unpickled recipe: the first case builds the schedule,
    and its compiled plan (memoized on the instance) serves every case
    in the group.  Each pair is :func:`execute_case`'s result, unchanged.
    """
    return [execute_case(case) for case in cases]


def group_by_schedule(cases: Iterable[Case]) -> list[list[Case]]:
    """*cases* grouped by equal schedule, in first-appearance order.

    Cases are grouped by their recipe's
    :meth:`~repro.engine.grids.ScheduleRecipe.content`, so nothing is
    built here: the pool worker that runs a group builds its schedule.
    """
    groups: dict[tuple[str, ...], list[Case]] = {}
    for case in cases:
        groups.setdefault(case.recipe.content(), []).append(case)
    return list(groups.values())


def resolve_workers(workers: int | None, n_cases: int) -> int:
    """Clamp a requested worker count to something sensible.

    ``None`` or 0 auto-sizes to the CPUs this process may run on — its
    affinity mask where the platform reports one, so ``taskset`` and
    cpusets are honoured — capped at 8 (the per-case work is small, so
    more workers mostly add IPC overhead).
    """
    if workers is None or workers <= 0:
        workers = min(8, _usable_cpus())
    return max(1, min(workers, n_cases))


def _usable_cpus() -> int:
    """CPUs this process may be scheduled on (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _pool_context() -> BaseContext:
    """Prefer fork (cheap, no re-import) where the platform offers it.

    ``multiprocessing`` is imported here, by the first sweep that starts
    a pool, so a sweep that starts none (all cache hits, one worker, one
    schedule) never loads it.  A pooled sweep still imports it in the
    parent, before the pool forks.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass(frozen=True)
class SerialExecutor:
    """Inline in-process execution — the reference backend.

    Runs one schedule group (:func:`group_by_schedule`) at a time, as a
    pool task does, and releases the group's schedule, with the plan
    memoized on it, once the group is done: grids list their cases
    algorithm by algorithm, so running them in grid order would hold
    every schedule until the sweep ends.
    """

    name = "serial"

    def map_cases(
        self, cases: Sequence[Case]
    ) -> Iterator[tuple[int, SweepRecord]]:
        for group in group_by_schedule(cases):
            for case in group:
                yield execute_case(case)
            for case in group:
                case.recipe.release()


@dataclass(frozen=True)
class ProcessExecutor:
    """A ``multiprocessing`` pool backend.

    ``workers=None`` auto-sizes to the machine.  The pool runs one task
    per schedule (:func:`execute_group`).  A task carries the schedule's
    recipe, so the worker builds and compiles the schedule once and the
    parent builds none.  Falls back to serial when the pool cannot
    help: a single worker or fewer than two schedules to spread.

    Pool results are drained *inside* the pool context and forwarded
    afterwards, so the pool is torn down deterministically even when the
    consumer abandons the iterator mid-stream (an exception while
    merging records must not leave worker processes alive until GC).
    """

    workers: int | None = None
    name = "processes"

    def map_cases(
        self, cases: Sequence[Case]
    ) -> Iterator[tuple[int, SweepRecord]]:
        cases = list(cases)
        workers = resolve_workers(self.workers, len(cases))
        groups = group_by_schedule(cases)
        if workers <= 1 or len(groups) < 2:
            yield from SerialExecutor().map_cases(cases)
            return
        context = _pool_context()
        chunksize = max(1, len(groups) // (workers * 4))
        with context.Pool(processes=min(workers, len(groups))) as pool:
            drained = list(
                pool.imap_unordered(execute_group, groups, chunksize=chunksize)
            )
        pool.join()
        for pairs in drained:
            yield from pairs


def resolve_executor(backend: str, *, workers: int | None = None) -> Executor:
    """An executor instance for a CLI-style *backend* name.

    ``workers`` is forwarded to the pool backend (``None`` auto-sizes) and
    rejected for ``serial`` only if greater than one — asking for a
    parallel serial run is a configuration error, not a silent downgrade.
    """
    if backend == "serial":
        if workers is not None and workers > 1:
            raise ExecutorError(
                f"the serial backend runs one case at a time; "
                f"workers={workers} makes no sense (use processes)"
            )
        return SerialExecutor()
    if backend == "processes":
        return ProcessExecutor(workers=workers)
    raise ExecutorError(
        f"unknown backend {backend!r}; known: " + ", ".join(BACKENDS)
    )

