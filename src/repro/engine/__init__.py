"""The batch execution engine.

Declarative case grids (:mod:`repro.engine.grids`), expanded into concrete
:class:`~repro.engine.cases.Case` lists and executed by
:mod:`repro.engine.runner` on a pluggable execution backend
(:mod:`repro.engine.executors`: serial or process-pool — anything
satisfying the :class:`~repro.engine.executors.Executor` protocol), with records aggregated into
:class:`~repro.engine.results.BatchResult`.  Every backend produces
identical record sequences for the same grid; see the runner module
docstring for the determinism contract.

Grids serialize to versioned JSON files
(:meth:`~repro.engine.grids.GridSpec.to_data` / ``from_data``), a
:class:`~repro.engine.grids.ShardSpec` slices an expanded grid
deterministically for distributed fan-out, and
:meth:`~repro.engine.results.BatchResult.merge` recombines shard exports
canonically.  A :class:`~repro.engine.cache.ResultCache` can be threaded
through the runners so repeated grids only execute cache misses.
"""

from repro.engine.cache import ResultCache, cache_gc, cache_stats
from repro.engine.cases import Case
from repro.engine.executors import (
    BACKENDS,
    Executor,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    execute_case,
    resolve_executor,
    resolve_workers,
)
from repro.engine.grids import (
    DEFAULT_SWEEP_ALGORITHMS,
    GRID_FORMAT_VERSION,
    SWEEP_PROFILES,
    FamilySpec,
    GridError,
    GridSpec,
    ShardSpec,
    case_seed,
    default_sweep_grid,
    expand_family,
    expand_grid,
    family,
    profile_grids,
)
from repro.engine.results import AlgorithmSummary, BatchResult
from repro.engine.runner import run_batch, run_cases
from repro.engine.sink import JsonlRecordSink, RecordSink, read_spool

__all__ = [
    "BACKENDS",
    "Case",
    "Executor",
    "ExecutorError",
    "FamilySpec",
    "GridSpec",
    "GridError",
    "GRID_FORMAT_VERSION",
    "AlgorithmSummary",
    "BatchResult",
    "ProcessExecutor",
    "ResultCache",
    "SerialExecutor",
    "ShardSpec",
    "DEFAULT_SWEEP_ALGORITHMS",
    "SWEEP_PROFILES",
    "cache_gc",
    "cache_stats",
    "case_seed",
    "default_sweep_grid",
    "expand_family",
    "expand_grid",
    "family",
    "profile_grids",
    "execute_case",
    "resolve_executor",
    "resolve_workers",
    "run_batch",
    "run_cases",
    "JsonlRecordSink",
    "RecordSink",
    "read_spool",
]
