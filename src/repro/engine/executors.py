"""Pluggable execution backends for the batch engine.

The engine's unit of work is one :class:`~repro.engine.cases.Case`; an
*executor* is any object with a ``map_cases(cases)`` method yielding
``(case index, record)`` pairs, in **any** order.  The runner
(:mod:`repro.engine.runner`) re-sorts the collected stream by case index,
so an executor's scheduling policy is never observable in the output —
that is the determinism contract that makes backends interchangeable.

Three backends ship with the engine:

* :class:`SerialExecutor` — inline, in-process, zero overhead; the
  reference implementation every other backend must match byte-for-byte.
* :class:`ProcessExecutor` — a ``multiprocessing`` pool.  Cases cross a
  pipe, so they must be picklable; cases carrying an explicit in-process
  ``factory`` (the legacy :mod:`repro.analysis.sweep` path) are split
  off and executed inline while everything else still runs on the pool,
  one task per schedule (:func:`group_by_schedule`).
* :class:`ThreadExecutor` — a ``concurrent.futures.ThreadPoolExecutor``.
  Threads share the interpreter, so explicit factories are fine; the GIL
  bounds speedup for the pure-Python kernel, but the backend is the right
  shape for I/O-heavy executors (and exercises the protocol without
  pickling).

:func:`resolve_executor` maps the CLI's ``--backend`` names to instances;
:func:`resolve_workers` clamps requested pool sizes.  Distributed
sharding composes with any backend: a :class:`~repro.engine.grids.ShardSpec`
slices the expanded grid, each shard runs under whatever executor its
machine prefers, and :meth:`~repro.engine.results.BatchResult.merge`
recombines the exports canonically.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Protocol, Sequence

from repro.analysis.sweep import SweepRecord, run_case
from repro.engine.cases import Case
from repro.errors import ReproError

#: CLI names of the stock backends, in documentation order.
BACKENDS = ("serial", "processes", "threads")


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
        case.resolve_factory(),
        case.workload,
        case.schedule,
        list(case.proposals),
        trace_mode=case.trace,
    )
    return case.index, replace(record, case_index=case.index)


def execute_group(cases: Sequence[Case]) -> list[tuple[int, SweepRecord]]:
    """Run cases that share one schedule; one pool task per schedule.

    The schedule crosses the pipe once per task and its compiled plan
    (memoized on the instance) serves every case in the group.  Each
    pair is :func:`execute_case`'s result, unchanged.
    """
    return [execute_case(case) for case in cases]


def group_by_schedule(cases: Iterable[Case]) -> list[list[Case]]:
    """*cases* grouped by :meth:`Schedule.digest`, in first-appearance
    order — equal schedules share a group even as distinct objects."""
    groups: dict[str, list[Case]] = {}
    for case in cases:
        groups.setdefault(case.schedule.digest(), []).append(case)
    return list(groups.values())


def resolve_workers(workers: int | None, n_cases: int) -> int:
    """Clamp a requested worker count to something sensible.

    ``None`` or 0 auto-sizes to the machine (capped at 8 — the per-case
    work is small, so more workers mostly add IPC overhead).
    """
    if workers is None or workers <= 0:
        workers = min(8, os.cpu_count() or 1)
    return max(1, min(workers, n_cases))


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, no re-import) where the platform offers it."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass(frozen=True)
class SerialExecutor:
    """Inline in-process execution — the reference backend."""

    name = "serial"

    def map_cases(
        self, cases: Sequence[Case]
    ) -> Iterator[tuple[int, SweepRecord]]:
        for case in cases:
            yield execute_case(case)


@dataclass(frozen=True)
class ProcessExecutor:
    """A ``multiprocessing`` pool backend.

    ``workers=None`` auto-sizes to the machine.  Cases carrying an
    explicit in-process factory (unpicklable in general) are partitioned
    out and executed inline, so one legacy case no longer forces the
    whole batch onto the serial path; the pool runs everything else,
    one task per schedule (:func:`execute_group`), so a schedule is
    pickled once per task and compiled once per sweep.  Falls back to
    serial entirely when the pool cannot help: a single worker or fewer
    than two schedules to spread.

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
        inline = [case for case in cases if case.factory is not None]
        groups = group_by_schedule(
            case for case in cases if case.factory is None
        )
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
        yield from SerialExecutor().map_cases(inline)


@dataclass(frozen=True)
class ThreadExecutor:
    """A ``concurrent.futures.ThreadPoolExecutor`` backend.

    Shares the interpreter, so explicit in-process factories execute
    fine; the GIL bounds speedup for the CPU-bound kernel, but the
    backend exercises the executor protocol without any pickling and is
    the right shape for future I/O-bound executors.
    """

    workers: int | None = None
    name = "threads"

    def map_cases(
        self, cases: Sequence[Case]
    ) -> Iterator[tuple[int, SweepRecord]]:
        from concurrent.futures import ThreadPoolExecutor

        cases = list(cases)
        workers = resolve_workers(self.workers, len(cases))
        if workers <= 1 or len(cases) < 2:
            yield from SerialExecutor().map_cases(cases)
            return
        # Drain inside the with block: yielding lazily from inside the
        # context would keep the pool alive until GC whenever a consumer
        # abandons the iterator mid-stream (ORC003, the PR 6 bug class).
        with ThreadPoolExecutor(max_workers=workers) as pool:
            drained = list(pool.map(execute_case, cases))
        yield from drained


def resolve_executor(backend: str, *, workers: int | None = None) -> Executor:
    """An executor instance for a CLI-style *backend* name.

    ``workers`` is forwarded to pool backends (``None`` auto-sizes) and
    rejected for ``serial`` only if greater than one — asking for a
    parallel serial run is a configuration error, not a silent downgrade.
    """
    if backend == "serial":
        if workers is not None and workers > 1:
            raise ExecutorError(
                f"the serial backend runs one case at a time; "
                f"workers={workers} makes no sense (use processes/threads)"
            )
        return SerialExecutor()
    if backend == "processes":
        return ProcessExecutor(workers=workers)
    if backend == "threads":
        return ThreadExecutor(workers=workers)
    raise ExecutorError(
        f"unknown backend {backend!r}; known: " + ", ".join(BACKENDS)
    )

