"""The batch execution engine: case runners over pluggable backends.

:func:`run_batch` is the main entry point: it takes a declarative
:class:`~repro.engine.grids.GridSpec` (or an already-expanded case list),
executes every case on an execution backend
(:mod:`repro.engine.executors`) and aggregates the streamed
:class:`~repro.analysis.sweep.SweepRecord` stream into a
:class:`~repro.engine.results.BatchResult`.

Determinism contract: executions of the same grid produce *identical*
record sequences regardless of backend or pool size.  Three properties
make this hold:

* case expansion is a pure function of the spec (seeds derived by SHA-256,
  never by global RNG state);
* each case runs on the deterministic kernel, so its record is a function
  of the case alone;
* executors yield ``(case index, record)`` pairs in arbitrary order and
  the runner re-sorts by index, erasing scheduling order.  Each record
  also carries its index (``SweepRecord.case_index``), so shard outputs
  can be recombined canonically by
  :meth:`~repro.engine.results.BatchResult.merge` in any arrival order.

Backends are selected with ``executor=`` — :class:`SerialExecutor` or
:class:`ProcessExecutor` (or anything else satisfying the
:class:`~repro.engine.executors.Executor` protocol).

Passing a :class:`~repro.engine.cache.ResultCache` as ``cache=`` splits
the cases into hits and misses up front: hits are answered from disk
(re-stamped with the requesting case's label and index), only misses
reach the executor, and freshly-computed records are stored back.
Because cached records are byte-identical to recomputed ones, a warm
cache changes nothing but wall-clock time.

Passing a :class:`~repro.engine.sink.RecordSink` as ``sink=`` streams
every record into it as it arrives, and the runner keeps none of them;
the canonical order is restored when the spool is read back
(:meth:`~repro.engine.results.BatchResult.load_spool`).  What that
bounds is the runner's own state: cache hits are emitted a chunk at a
time, and the serial backend has one record in flight.  The process
pool drains its whole batch before the pool is torn down (see
:class:`~repro.engine.executors.ProcessExecutor`), so a pooled driver
holds every executed record until the pool is gone.  Whoever reads
the spool back holds the batch again, one slotted record per case.

Every case names a registered algorithm; workers resolve its automaton
factory from the registry by name, so cases stay picklable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.sweep import SweepRecord
from repro.engine.cache import READ_CHUNK
from repro.engine.cases import Case
from repro.engine.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    execute_case,
    resolve_executor,
    resolve_workers,
)
from repro.engine.grids import GridError, GridSpec, expand_grid
from repro.engine.results import BatchResult

if TYPE_CHECKING:
    from repro.engine.cache import ResultCache
    from repro.engine.sink import RecordSink

__all__ = [
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "execute_case",
    "resolve_executor",
    "resolve_workers",
    "run_batch",
    "run_cases",
]


def _check_unique_indices(cases: Sequence[Case]) -> None:
    """Reject duplicate case indices before anything executes.

    Duplicate indices would make the canonical record order ambiguous and
    silently corrupt merge keys; the docstring contract has always
    required uniqueness, so violating it is a :class:`GridError`.
    """
    counts = Counter(case.index for case in cases)
    duplicates = sorted(index for index, count in counts.items() if count > 1)
    if duplicates:
        raise GridError(
            f"duplicate case indices {duplicates}: case indices must be "
            f"unique — they define the canonical record order"
        )


def run_cases(
    cases: Iterable[Case],
    *,
    executor: Executor | None = None,
    cache: "ResultCache | None" = None,
    sink: "RecordSink | None" = None,
) -> list[SweepRecord]:
    """Execute *cases* and return their records in canonical case order.

    Args:
        cases: expanded cases; their ``index`` fields define the output
            order (they need not be contiguous, but must be unique —
            duplicates raise :class:`GridError`).
        executor: execution backend (default :class:`SerialExecutor`).
        cache: optional :class:`~repro.engine.cache.ResultCache`; hits
            skip the executor entirely, misses are executed and stored
            back.
        sink: optional :class:`~repro.engine.sink.RecordSink`.  Every
            record is appended as it arrives — cache hits first (in case
            order), then executed misses in the executor's completion
            order, which under a pool is nondeterministic — and none is
            held, so the return value is an empty list.  The caller owns
            the sink's lifecycle.
    """
    backend = executor if executor is not None else SerialExecutor()
    cases = list(cases)  # tolerate one-shot iterators: we iterate twice
    _check_unique_indices(cases)

    indexed: list[tuple[int, SweepRecord]] = []

    def emit(index: int, record: SweepRecord) -> None:
        if sink is None:
            indexed.append((index, record))
        else:
            sink.append(record)

    pending: Sequence[Case] = cases
    key_by_index: dict[int, str | None] = {}
    duplicate_of: dict[int, list[Case]] = {}
    if cache is not None:
        # Partition into hits, misses, and in-flight duplicates: several
        # cases sharing one content key (same algorithm/schedule/proposals
        # under different labels) execute a single representative, whose
        # record serves the rest re-stamped — each distinct computation
        # pays the kernel at most once per batch.  Hits are read one
        # chunk of keys per query and emitted before the next chunk is
        # read, so a spooled driver holds one chunk of cached rows.
        pending = []
        seen_keys: dict[str, int] = {}
        for start in range(0, len(cases), READ_CHUNK):
            chunk = cases[start:start + READ_CHUNK]
            keys = [cache.case_key(case) for case in chunk]
            rows = cache.read_rows(
                key for key in keys if key is not None and key not in seen_keys
            )
            for case, key in zip(chunk, keys):
                if key is not None and key in seen_keys:
                    duplicate_of.setdefault(seen_keys[key], []).append(case)
                    continue
                record = cache.lookup(case, key, rows)
                if record is None:
                    if key is not None:
                        seen_keys[key] = case.index
                    key_by_index[case.index] = key
                    pending.append(case)
                else:
                    emit(case.index, record)

    by_index = {case.index: case for case in pending}

    def handle(pair: tuple[int, SweepRecord]) -> None:
        index, record = pair
        if cache is not None:
            cache.store(by_index[index], record, key_by_index[index])
        emit(index, record)
        for duplicate in duplicate_of.get(index, ()):
            cache.deduped += 1
            stamped = replace(
                record,
                workload=duplicate.workload,
                case_index=duplicate.index,
            )
            emit(duplicate.index, stamped)

    for pair in backend.map_cases(pending):
        handle(pair)
    indexed.sort(key=lambda pair: pair[0])
    return [record for _index, record in indexed]


def run_batch(
    grid: GridSpec | Iterable[Case],
    *,
    executor: Executor | None = None,
    cache: "ResultCache | None" = None,
) -> BatchResult:
    """Expand (if needed) and execute a grid, returning the aggregate result.

    A sharded run slices the expanded case list first
    (:meth:`~repro.engine.grids.ShardSpec.select`); the per-shard
    :class:`~repro.engine.results.BatchResult` exports recombine with
    :meth:`~repro.engine.results.BatchResult.merge` into exactly the
    whole-grid result, regardless of backend or merge order.
    """
    cases = expand_grid(grid) if isinstance(grid, GridSpec) else grid
    return BatchResult(
        records=tuple(run_cases(cases, executor=executor, cache=cache))
    )
