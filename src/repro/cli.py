"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the algorithm registry with models and summaries.
* ``run`` — execute one algorithm on one workload and print the trace,
  optionally as a space-time diagram.
* ``experiments`` — print the table-shaped experiments (E5–E11), each
  defined once in :mod:`repro.analysis.experiments`; the benches in
  ``benchmarks/`` time and assert the same tables.
* ``sweep`` — execute a declarative case grid (stock, from a versioned
  ``--grid`` JSON file or directory of them, or a named ``--profile``)
  on the batch engine (:mod:`repro.engine`), on a selectable execution
  backend, optionally as one shard of a distributed run.
* ``merge`` — recombine per-shard ``--json`` exports into the
  whole-grid result.
* ``grid validate`` — lint grid JSON files (or directories of them)
  without running anything.
* ``cache stats`` — inspect a result-cache directory's database
  (entries, bytes, lifetime hit rate, last gc); creates nothing.
* ``cache gc`` — evict cache entries by age and/or LRU size bound.

Examples::

    python -m repro list
    python -m repro run --algorithm att2 --n 5 --t 2 \
        --workload cascade --proposals 3,1,4,1,5 --diagram
    python -m repro experiments
    python -m repro sweep --workers 4 --json sweep.json
    python -m repro sweep --algorithms att2,hurfin_raynal \
        --n 7 --t 3 --cases-per-family 40 --seed 7
    python -m repro sweep --cache .sweep-cache --workers 4
    python -m repro sweep --save-grid grid.json
    python -m repro sweep --grid grid.json --backend serial \
        --shard 0/2 --json shard0.json
    python -m repro sweep --grid experiments/ --json all.json
    python -m repro sweep --profile large
    python -m repro sweep --profile xlarge
    python -m repro sweep --profile xxlarge --spool xxl.jsonl --json xxl.json
    python -m repro merge shard0.json shard1.json --json whole.json
    python -m repro grid validate experiments/
    python -m repro cache stats .sweep-cache
    python -m repro cache gc .sweep-cache --max-age 30 --max-bytes 50000000

The ``sweep`` grid schema
-------------------------

A grid (:class:`repro.engine.grids.GridSpec`) is the cross product

    ``algorithms × schedule families × proposal pattern``

* **algorithms** — registry names (``python -m repro list``); every
  family instance is run against every algorithm.
* **families** (:class:`repro.engine.grids.FamilySpec`) — each names a
  generator ``kind`` plus parameters.  Seeded kinds (``random_es``,
  ``random_scs``, ``random_serial``) expand into ``count`` instances
  whose per-instance seeds are derived as SHA-256 of
  ``(grid seed, family name, index)``; deterministic kinds
  (``failure_free``, ``cascade``, ``hiding_chain``, ``block``,
  ``killer``, ``async_prefix``, ``rotating``) wrap the structured
  workload generators.
* **proposal pattern** — ``range`` (``0..n-1``) or ``random``
  (per-case seeded).

The CLI exposes the stock grid of
:func:`repro.engine.grids.default_sweep_grid` — seeded ES/SCS/serial
families plus the five structured workloads of experiment E5 — sized by
``--cases-per-family``.  ``--save-grid grid.json`` writes the grid being
run as a versioned JSON file and ``--grid grid.json`` runs one, so
experiment definitions can be shared and diffed without touching Python
(the file round-trips ``GridSpec.to_data``/``from_data`` losslessly).
``--grid DIR`` runs every ``*.json`` grid in the directory (sorted by
name) as one combined sweep: case indices are offset per grid and
workload labels prefixed with the grid file's stem, so the single
``--json`` export merges all grids canonically.  ``--profile large``
runs the stock large-n preset (n = 25 and n = 50, long horizons) the
same way, ``--profile xlarge`` the n = 100 milestone preset (one
instance per family, horizon 102) that the round-view delivery
pipeline makes a seconds-not-minutes run, and ``--profile xxlarge``
the n = 250 preset (t pinned at the xlarge value, isolating the
per-round n² data-plane cost) that the bitset data plane makes
tractable — pair it with ``--spool`` so a killed run keeps every
case it finished.  ``repro grid validate FILE_OR_DIR...`` lints grid
files for CI without executing them.

``--spool FILE`` streams every record to an append-only JSONL spool as
it completes (:mod:`repro.engine.sink`): a killed run leaves the spool
loadable as a clean partial result.  The summaries and the ``--json``
export are rebuilt from the spool, byte-identical to the in-memory
path, so the driver still ends up holding one slotted record per case;
the export writes them one at a time.

Trace modes
-----------

``sweep`` runs every case lean
(:func:`repro.sim.kernel.execute` with ``trace="lean"``): the kernel
records decisions and counters, which is everything a sweep record
consumes, and skips the per-round records.  ``run`` records the full
per-round :class:`~repro.sim.trace.Trace`, so ``--diagram`` always has
rounds to render.

Backends and shards
-------------------

``--backend`` picks the execution backend (:mod:`repro.engine.executors`):
``processes`` (default; ``--workers N`` sizes the pool, omit to
auto-size) or ``serial``.  Expansion is a pure function of the spec,
records are re-sorted into expansion order after execution, and both
backends therefore yield byte-identical output — any ``--json`` export
of the same grid and seed diffs empty.

``--shard I/N`` runs only the cases with ``index % N == I``, so N
machines can split one grid file without coordination; each shard's
``--json`` export (or ``--spool``) carries its case indices, and
``repro merge`` recombines them — in any order — into output
byte-identical to the unsharded run.  Overlapping inputs are refused.
A merge whose case indices are not exactly ``0..N-1`` writes
``<json>.partial`` instead of ``<json>`` and exits 1; a missing *tail*
of indices cannot be detected, because an export does not carry its
grid's size.

The ``sweep`` result cache
--------------------------

``--cache DIR`` threads a content-addressed on-disk record cache
(:mod:`repro.engine.cache`, one SQLite file ``DIR/cache.sqlite3``)
through the engine: each case is keyed by SHA-256 over (key-scheme tag,
algorithm name, a source hash of the algorithm's transitive module
closure, a source hash of the simulation kernel and record machinery,
the schedule's identity, the proposals), so only cache *misses* ever
reach the kernel.  A case's schedule is identified by its recipe (a
source hash of the schedule generators, family, size and seed), so
keying builds no schedule.  Re-running an identical grid against a warm
cache executes zero cases and produces byte-identical ``--json``
output; editing an algorithm's source invalidates only that
algorithm's entries (and its dependents'), and editing the schedule
generators, the kernel or the metrics invalidates everything.  The CLI
prints the hit/miss tally after each cached sweep, then closes the
database, so an idle cache directory is that one file; ``--no-cache``
bypasses a configured ``--cache`` without having to edit scripted
invocations, and deleting the directory is always safe — it costs only
recomputation.
Directories of the old one-JSON-file-per-entry layout are not read:
delete them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.algorithms.registry import available_algorithms, get_factory
from repro.analysis.metrics import check_consensus, summarize
from repro.analysis.tables import format_table
from repro.errors import AlgorithmError, ScheduleError
from repro.model.schedule import Schedule
from repro.sim.kernel import run_algorithm


#: ``repro run --workload`` names: the grid family kind each builds, and
#: its params (``async_prefix`` also takes ``k`` from ``--sync-after``).
_RUN_WORKLOADS = {
    "failure_free": ("failure_free", {}),
    "cascade": ("cascade", {}),
    "hiding_chain": ("hiding_chain", {}),
    "block": ("block", {}),
    "killer2": ("killer", {"rounds_per_cycle": 2}),
    "killer3": ("killer", {"rounds_per_cycle": 3}),
    "async_prefix": ("async_prefix", {}),
}


def _build_workload(name: str, n: int, t: int, horizon: int,
                    sync_after: int) -> Schedule:
    from repro.engine.grids import build_schedule, family

    if name not in _RUN_WORKLOADS:
        known = ", ".join(sorted(_RUN_WORKLOADS))
        raise SystemExit(f"unknown workload {name!r}; known: {known}")
    kind, params = _RUN_WORKLOADS[name]
    if kind == "async_prefix":
        params = {"k": sync_after}
    spec = family(name, kind, horizon=horizon, **params)
    return build_schedule(spec, n, t, seed=0)


def _cmd_list(_args) -> int:
    rows = [
        (info.name, info.model, info.summary)
        for info in available_algorithms().values()
    ]
    print(format_table(["name", "model", "summary"], rows,
                       title="Registered consensus algorithms"))
    return 0


def _reject_unsupported_sizes(algorithms, n: int, t: int) -> None:
    """Exit with one line if an algorithm rejects the system size.

    Algorithms check (n, t) when their automata are built (A_f+2 and AMR
    need t < n/3, the indulgent ones t < n/2).  Building one automaton
    per algorithm up front turns that check into a one-line error rather
    than a traceback from inside a run or a worker process.
    """
    for name in algorithms:
        try:
            get_factory(name)(0, n, t, 0)
        except (AlgorithmError, ValueError) as exc:
            raise SystemExit(f"invalid system size for {name}: {exc}")


def _cmd_run(args) -> int:
    if args.horizon < 1:
        raise SystemExit(f"--horizon must be >= 1, got {args.horizon}")
    try:
        factory = get_factory(args.algorithm)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    try:
        schedule = _build_workload(
            args.workload, args.n, args.t, args.horizon, args.sync_after
        )
    except ValueError as exc:
        raise SystemExit(f"invalid system size: {exc}")
    except ScheduleError as exc:
        # e.g. a crash the workload places after a short --horizon
        raise SystemExit(
            f"cannot build workload {args.workload!r} with "
            f"--horizon {args.horizon}: {exc}"
        )
    _reject_unsupported_sizes([args.algorithm], args.n, args.t)
    if args.proposals:
        try:
            proposals = [int(v) for v in args.proposals.split(",")]
        except ValueError:
            raise SystemExit(
                f"proposals must be comma-separated integers, "
                f"got {args.proposals!r}"
            )
        if len(proposals) != args.n:
            raise SystemExit(
                f"need {args.n} proposals, got {len(proposals)}"
            )
    else:
        proposals = list(range(args.n))

    trace = run_algorithm(factory, schedule, proposals)
    print(schedule.describe())
    print()
    if args.diagram:
        from repro.analysis.diagram import render_run

        print(render_run(trace, title=f"{args.algorithm} on "
                                      f"{args.workload}"))
        print()
    print(trace.describe())
    summary = summarize(trace)
    print(f"\nglobal decision round: {summary.global_round}")
    problems = check_consensus(trace, expect_termination=False)
    if problems:
        print("CONSENSUS VIOLATIONS:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("consensus properties: ok")
    return 0


def _ensure_writable(path: str, flag: str = "--json") -> None:
    """Fail fast if *path* cannot be written — before minutes of compute.

    Opens in append mode so an existing export is never truncated; a file
    the probe itself created is removed again, so a sweep that later fails
    leaves no misleading empty export behind.  *flag* names the offending
    option in the error message.
    """
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(f"cannot write {flag} output {path!r}: {exc}")
    if not existed:
        try:
            os.remove(path)
        except OSError:
            pass


def _parse_workers(args) -> int | None:
    """The validated ``--workers`` value (``None`` = auto-size).

    Explicit non-positive counts are rejected up front with a clean
    message; historically ``--workers 0`` silently meant "auto", which
    made typos indistinguishable from intent.
    """
    if args.workers is None:
        return None
    if args.workers < 1:
        raise SystemExit(
            f"--workers must be >= 1, got {args.workers} "
            f"(omit the flag to auto-size)"
        )
    return args.workers


def _parse_shard(args):
    """The validated ``--shard`` spec, or ``None``."""
    from repro.engine import GridError, ShardSpec

    if not args.shard:
        return None
    try:
        return ShardSpec.parse(args.shard)
    except GridError as exc:
        raise SystemExit(f"invalid --shard: {exc}")


#: Grid-shaping sweep flags, every one defaulting to ``None`` in the
#: parser so "explicitly passed" is detectable — a grid file defines the
#: whole experiment, and silently ignoring an explicit flag next to
#: ``--grid`` would let someone believe they swept a seed they didn't.
_GRID_SHAPE_FLAGS = (
    ("--n", "n"),
    ("--t", "t"),
    ("--algorithms", "algorithms"),
    ("--cases-per-family", "cases_per_family"),
    ("--seed", "seed"),
    ("--proposals-mode", "proposals_mode"),
)


def _grid_paths(directory: str) -> list[str]:
    """Every ``*.json`` grid file in *directory*, sorted by name.

    The one definition of "which files make up a grid directory" —
    shared by ``sweep --grid DIR`` and ``grid validate DIR`` so the two
    commands can never disagree about what constitutes the experiment.
    An empty directory is a clean error, not an empty sweep.
    """
    import glob as globmod

    paths = sorted(globmod.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise SystemExit(
            f"no *.json grid files in directory {directory!r}"
        )
    return paths


def _load_grid_file(path: str):
    """One validated grid from *path* (clean exits on any problem)."""
    from repro.engine import GridError, GridSpec

    try:
        return GridSpec.load(path)
    except OSError as exc:
        raise SystemExit(f"cannot read --grid {path!r}: {exc}")
    except GridError as exc:
        raise SystemExit(f"invalid --grid {path!r}: {exc}")


def _reject_shape_flags(args, option: str, *, allow_seed: bool = False):
    """Fail when grid-shaping flags were passed next to *option*."""
    explicit = [
        flag for flag, attr in _GRID_SHAPE_FLAGS
        if getattr(args, attr) is not None
        and not (allow_seed and attr == "seed")
    ]
    if explicit:
        raise SystemExit(
            f"{option} and {', '.join(explicit)} are mutually exclusive: "
            f"{option} already defines the experiment"
        )


def _load_grids(args) -> list:
    """The labelled grids to sweep, as ``(label, GridSpec)`` pairs.

    A single grid (stock flags, or ``--grid FILE``) gets label ``None``
    and runs exactly as before.  Multiple grids — ``--grid DIR`` (every
    ``*.json``, sorted by name) or ``--profile NAME`` — are combined
    into one sweep: the caller offsets case indices per grid and
    prefixes workload labels with the grid label, so one export holds
    the merged result.
    """
    from repro.engine import GridError, default_sweep_grid, profile_grids
    from repro.engine.grids import DEFAULT_SWEEP_ALGORITHMS

    if args.grid and args.profile:
        raise SystemExit("--grid and --profile are mutually exclusive")
    if args.profile:
        # --seed stays available: a profile fixes the experiment's shape,
        # not its randomness.
        _reject_shape_flags(args, "--profile", allow_seed=True)
        try:
            return profile_grids(
                args.profile,
                seed=args.seed if args.seed is not None else 0,
            )
        except GridError as exc:
            raise SystemExit(str(exc))
    if args.grid:
        _reject_shape_flags(args, "--grid")
        if os.path.isdir(args.grid):
            grids = [
                (os.path.splitext(os.path.basename(path))[0],
                 _load_grid_file(path))
                for path in _grid_paths(args.grid)
            ]
            return grids if len(grids) > 1 else [(None, grids[0][1])]
        return [(None, _load_grid_file(args.grid))]
    if args.algorithms:
        stripped = (name.strip() for name in args.algorithms.split(","))
        algorithms = tuple(name for name in stripped if name)
    else:
        algorithms = DEFAULT_SWEEP_ALGORITHMS
    if args.cases_per_family is not None and args.cases_per_family < 1:
        raise SystemExit(
            f"--cases-per-family must be >= 1, got {args.cases_per_family}"
        )
    try:
        grid = default_sweep_grid(
            args.n if args.n is not None else 5,
            args.t if args.t is not None else 2,
            seed=args.seed if args.seed is not None else 0,
            algorithms=algorithms,
            cases_per_family=(
                args.cases_per_family
                if args.cases_per_family is not None
                else 12
            ),
            proposal_mode=args.proposals_mode or "random",
        )
    except GridError as exc:
        raise SystemExit(str(exc))
    except ValueError as exc:
        raise SystemExit(f"invalid system size: {exc}")
    return [(None, grid)]


def _expand_grids(grids) -> list:
    """The combined case list of one or more labelled grids.

    A single grid expands exactly as always.  Multiple grids are
    concatenated with per-grid index offsets (keeping case indices
    unique, the invariant every merge and shard contract rests on) and
    workload labels prefixed with the grid label, so records remain
    attributable in the combined export.
    """
    from dataclasses import replace

    from repro.engine import expand_grid

    cases = []
    for label, grid in grids:
        expanded = expand_grid(grid)
        if len(grids) > 1:
            offset = len(cases)
            expanded = [
                replace(
                    case,
                    index=case.index + offset,
                    workload=f"{label}:{case.workload}",
                )
                for case in expanded
            ]
        cases.extend(expanded)
    return cases


def _cmd_sweep(args) -> int:
    from repro.engine import (
        AlgorithmSummary,
        BatchResult,
        ExecutorError,
        JsonlRecordSink,
        ResultCache,
        resolve_executor,
        run_batch,
        runner,
    )

    workers = _parse_workers(args)
    shard = _parse_shard(args)
    grids = _load_grids(args)
    for _label, grid in grids:
        _reject_unsupported_sizes(grid.algorithms, grid.n, grid.t)
    try:
        executor = resolve_executor(args.backend, workers=workers)
    except ExecutorError as exc:
        raise SystemExit(str(exc))
    if args.json:
        _ensure_writable(args.json)
    if args.spool:
        if os.path.exists(args.spool) and os.path.getsize(args.spool):
            raise SystemExit(
                f"--spool {args.spool!r} already exists and is not empty; "
                f"the spool is append-only, so streaming into it again "
                f"would duplicate case indices — remove it or pick a "
                f"fresh path"
            )
        _ensure_writable(args.spool, flag="--spool")
    if args.save_grid:
        if len(grids) > 1:
            raise SystemExit(
                "--save-grid writes a single grid file; it cannot "
                "represent a multi-grid sweep (--grid DIR / --profile)"
            )
        _ensure_writable(args.save_grid, flag="--save-grid")
        try:
            grids[0][1].save(args.save_grid)
        except OSError as exc:
            raise SystemExit(
                f"cannot write --save-grid {args.save_grid!r}: {exc}"
            )
    cache = None
    if args.cache and not args.no_cache:
        try:
            cache = ResultCache(args.cache)
        except OSError as exc:
            raise SystemExit(
                f"cannot use --cache directory {args.cache!r}: {exc}"
            )

    cases = _expand_grids(grids)
    total = len(cases)
    if shard is not None:
        cases = shard.select(cases)
        sharding = f", {shard.describe()} of {total}"
    else:
        sharding = ""
    if len(grids) == 1:
        _label, grid = grids[0]
        shape = (
            f"{len(grid.algorithms)} algorithms x "
            f"{sum(f.count for f in grid.families)} schedules{sharding}), "
            f"seed={grid.seed}"
        )
        title = f"Batch sweep (n={grid.n}, t={grid.t})"
    else:
        shape = (
            ", ".join(
                f"{label}: n={grid.n}/t={grid.t}" for label, grid in grids
            )
            + sharding + ")"
        )
        title = f"Batch sweep ({len(grids)} grids)"
    print(
        f"sweep: {len(cases)} cases ({shape}, "
        f"backend={executor.name}"
    )
    if args.spool:
        # Stream to the spool: the runner keeps no record, but a pool
        # drains its whole batch before it is torn down.  The canonical
        # result (summaries, --json export) is then rebuilt from the
        # spool, every record again — byte-identical to the in-memory
        # path, per the engine's determinism contract.
        # ``runner.run_cases`` is looked up at call time, so wrappers
        # installed on the module see this path too.
        sink = JsonlRecordSink(args.spool)
        try:
            runner.run_cases(
                cases, executor=executor, cache=cache, sink=sink,
            )
        finally:
            sink.close()
        result = BatchResult.load_spool(args.spool)
        print(f"spooled {result.case_count} records to {args.spool}")
    else:
        result = run_batch(cases, executor=executor, cache=cache)
    rows = [summary.row() for summary in result.summaries()]
    print()
    print(format_table(
        list(AlgorithmSummary.ROW_HEADERS), rows,
        title=title,
    ))
    if cache is not None:
        print(f"\n{cache.describe()}")
        cache.flush_stats()
        cache.close()
    violations = result.violations()
    if args.json:
        result.save(args.json)
        print(f"\nwrote {result.case_count} records to {args.json}")
    if violations:
        print(f"\nSAFETY VIOLATIONS in {len(violations)} cases:")
        for record in violations:
            print(f"  - {record.algorithm} on {record.workload}")
        return 1
    print("\nsafety (agreement + validity): ok on every case")
    return 0


def _cmd_merge(args) -> int:
    """Recombine per-shard ``--json`` exports into the whole-grid result."""
    from repro.engine import BatchResult

    _ensure_writable(args.json)
    results = []
    for path in args.inputs:
        try:
            results.append(BatchResult.load(path))
        except OSError as exc:
            raise SystemExit(f"cannot read shard {path!r}: {exc}")
        except (ValueError, TypeError, KeyError) as exc:
            raise SystemExit(f"invalid shard export {path!r}: {exc}")
    if any(
        record.case_index < 0
        for result in results
        for record in result.records
    ):
        raise SystemExit(
            "shard exports contain records without case indices; "
            "only engine-produced exports can be merged canonically"
        )
    try:
        merged = BatchResult.merge(results)
    except ValueError as exc:
        raise SystemExit(str(exc))
    # Indices run 0..N-1 in a whole grid, so a gap means a missing shard.
    # A missing tail is invisible: the exports do not carry the grid size.
    present = {record.case_index for record in merged.records}
    top = max(present, default=-1)
    missing = [index for index in range(top + 1) if index not in present]
    if missing:
        partial = f"{args.json}.partial"
        merged.save(partial)
        print(
            f"merged {merged.case_count} records from {len(args.inputs)} "
            f"shards, but {len(missing)} case indices in 0..{top} are "
            f"missing (first: {missing[:10]}); wrote PARTIAL result to "
            f"{partial}"
        )
        return 1
    merged.save(args.json)
    print(
        f"merged {merged.case_count} records from {len(args.inputs)} "
        f"shards into {args.json}"
    )
    return 0


def _cmd_cache_stats(args) -> int:
    """Report entry count, size, lifetime hit rate and last gc of a cache."""
    import time

    from repro.engine import cache_stats

    try:
        stats = cache_stats(args.directory)
    except OSError as exc:
        raise SystemExit(f"cannot read cache directory: {exc}")
    print(
        f"cache {args.directory}: {stats['entries']} entries, "
        f"{stats['total_bytes']} bytes"
    )
    if stats["hit_rate"] is None:
        print("lifetime: no recorded sweeps")
    else:
        extras = ""
        if stats["deduped"]:
            extras += f", {stats['deduped']} deduped"
        if stats["store_failures"]:
            extras += f", {stats['store_failures']} store failures"
        print(
            f"lifetime: {stats['hits']} hits, {stats['misses']} misses"
            f"{extras} over {stats['sweeps']} sweeps "
            f"(hit rate {100 * stats['hit_rate']:.1f}%)"
        )
    last_gc = stats.get("last_gc")
    if last_gc:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S UTC", time.gmtime(last_gc.get("at", 0))
        )
        print(
            f"last gc: removed {last_gc.get('removed', 0)} entries "
            f"({last_gc.get('removed_bytes', 0)} bytes) at {when}"
        )
    else:
        print("last gc: never")
    return 0


def _cmd_cache_gc(args) -> int:
    """Evict cache entries by age and/or LRU size bound."""
    from repro.engine import cache_gc

    if args.max_age is None and args.max_bytes is None:
        raise SystemExit(
            "cache gc needs at least one bound: --max-age DAYS and/or "
            "--max-bytes N"
        )
    try:
        summary = cache_gc(
            args.directory,
            max_age_days=args.max_age,
            max_bytes=args.max_bytes,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot gc cache directory: {exc}")
    print(
        f"cache gc {args.directory}: removed {summary['removed']} entries "
        f"({summary['removed_bytes']} bytes); {summary['remaining']} "
        f"entries ({summary['remaining_bytes']} bytes) remain"
    )
    return 0


def _cmd_cache(args) -> int:
    handlers = {"stats": _cmd_cache_stats, "gc": _cmd_cache_gc}
    return handlers[args.cache_command](args)


def _cmd_grid_validate(args) -> int:
    """Lint grid files (or directories of them) without running anything."""
    from repro.engine import GridError, GridSpec

    paths = []
    for target in args.paths:
        if os.path.isdir(target):
            paths.extend(_grid_paths(target))
        else:
            paths.append(target)
    invalid = 0
    for path in paths:
        try:
            grid = GridSpec.load(path)
        except OSError as exc:
            print(f"INVALID {path}: cannot read: {exc}")
            invalid += 1
        except GridError as exc:
            print(f"INVALID {path}: {exc}")
            invalid += 1
        else:
            print(
                f"ok      {path}: {len(grid.algorithms)} algorithms x "
                f"{sum(f.count for f in grid.families)} schedules = "
                f"{grid.case_count} cases (n={grid.n}, t={grid.t})"
            )
    if invalid:
        print(f"\n{invalid} of {len(paths)} grid files invalid")
        return 1
    return 0


def _cmd_grid(args) -> int:
    handlers = {"validate": _cmd_grid_validate}
    return handlers[args.grid_command](args)


def _cmd_lint(args) -> int:
    from repro.devtools.cli import run_lint

    return run_lint(args)


def _cmd_experiments(_args) -> int:
    from repro.analysis.experiments import all_experiments, render

    for table in all_experiments():
        print(render(table))
        print()
    print("(Full, asserted experiment suite: "
          "pytest benchmarks/ --benchmark-only)")
    return 0


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint``'s arguments to its subparser.

    The wiring lives here, not in :mod:`repro.devtools.cli`, so building
    the parser for any other command imports no lint code.
    """
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files and/or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json", dest="json_out", metavar="FILE", default=None,
        help="also write the machine-readable report to FILE",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The inherent price of indulgence' "
                    "(Dutta & Guerraoui, PODC 2002).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered algorithms")

    run_parser = sub.add_parser("run", help="run one algorithm on one "
                                            "workload")
    run_parser.add_argument("--algorithm", default="att2")
    run_parser.add_argument("--n", type=int, default=5)
    run_parser.add_argument("--t", type=int, default=2)
    run_parser.add_argument("--workload", default="failure_free")
    run_parser.add_argument("--horizon", type=int, default=24)
    run_parser.add_argument("--sync-after", type=int, default=3,
                            help="async prefix length for async_prefix")
    run_parser.add_argument("--proposals", default="",
                            help="comma-separated ints (default 0..n-1)")
    run_parser.add_argument("--diagram", action="store_true",
                            help="print a space-time diagram")

    sub.add_parser("experiments", help="print the experiment tables")

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a declarative case grid on the batch engine",
    )
    sweep_parser.add_argument(
        "--grid", default="",
        help="run a grid spec from this JSON file (see --save-grid) "
             "instead of building the stock grid from flags; a directory "
             "runs every *.json grid in it as one combined sweep",
    )
    sweep_parser.add_argument(
        "--profile", default="",
        help="run a stock multi-grid preset (large: n=25 and n=50 with "
             "long horizons; xlarge: the n=100 milestone; xxlarge: the "
             "n=250 preset, best with --spool); mutually exclusive with "
             "--grid and the grid-shaping flags (except --seed)",
    )
    sweep_parser.add_argument(
        "--save-grid", default="",
        help="write the grid being run to this JSON file (versionable; "
             "re-runnable via --grid)",
    )
    # Grid-shaping flags default to None so _load_grid can reject any of
    # them passed explicitly alongside --grid (see _GRID_SHAPE_FLAGS).
    sweep_parser.add_argument("--n", type=int, default=None,
                              help="processes per case (default 5)")
    sweep_parser.add_argument("--t", type=int, default=None,
                              help="resilience bound (default 2)")
    sweep_parser.add_argument(
        "--algorithms", default=None,
        help="comma-separated registry names (default: the five E5 "
             "algorithms)",
    )
    sweep_parser.add_argument(
        "--cases-per-family", type=int, default=None,
        help="instances per seeded schedule family (default 12)",
    )
    sweep_parser.add_argument("--seed", type=int, default=None,
                              help="master seed for the grid (default 0)")
    sweep_parser.add_argument(
        "--backend", choices=("serial", "processes"),
        default="processes",
        help="execution backend (default processes)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=None,
        help="pool size for the processes backend "
             "(default: auto-size to the machine)",
    )
    sweep_parser.add_argument(
        "--shard", default="",
        help="run only shard I of N (format I/N, e.g. 0/2); merge the "
             "per-shard --json exports with `repro merge`",
    )
    sweep_parser.add_argument(
        "--proposals-mode", choices=("range", "random"), default=None,
        help="proposal pattern per case (default random)",
    )
    sweep_parser.add_argument("--json", default="",
                              help="write all records to this JSON file")
    sweep_parser.add_argument(
        "--spool", default="",
        help="stream records to this append-only JSONL spool as they "
             "complete (a killed run keeps every finished case; "
             "summaries and --json are rebuilt from the spool, "
             "byte-identical to the in-memory path)",
    )
    sweep_parser.add_argument(
        "--cache", default="",
        help="content-addressed result cache directory (one SQLite "
             "file): repeated identical grids only execute cache misses",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass --cache (run every case) without editing scripts",
    )

    merge_parser = sub.add_parser(
        "merge",
        help="recombine per-shard sweep --json exports canonically",
    )
    merge_parser.add_argument(
        "inputs", nargs="+",
        help="shard --json exports or --spool files (any order)",
    )
    merge_parser.add_argument(
        "--json", required=True,
        help="write the merged result to this JSON file (if case indices "
             "are missing, to FILE.partial, exiting 1)",
    )

    grid_parser = sub.add_parser(
        "grid",
        help="work with versioned grid spec files",
    )
    grid_sub = grid_parser.add_subparsers(
        dest="grid_command", required=True
    )
    validate_parser = grid_sub.add_parser(
        "validate",
        help="lint grid JSON files (or directories of them) without "
             "running anything",
    )
    validate_parser.add_argument(
        "paths", nargs="+",
        help="grid files and/or directories containing *.json grids",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="AST lint the tree against the repo's determinism, bitset, "
             "pickle and executor invariants",
    )
    add_lint_arguments(lint_parser)

    cache_parser = sub.add_parser(
        "cache",
        help="inspect or collect a result-cache directory (its "
             "cache.sqlite3 database)",
    )
    cache_sub = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    stats_parser = cache_sub.add_parser(
        "stats",
        help="entry count, total bytes, lifetime hit rate and last gc",
    )
    stats_parser.add_argument("directory", help="cache directory to inspect")
    gc_parser = cache_sub.add_parser(
        "gc",
        help="evict entries by age (--max-age) and/or LRU size bound "
             "(--max-bytes); eviction only ever costs recomputation",
    )
    gc_parser.add_argument("directory", help="cache directory to collect")
    gc_parser.add_argument(
        "--max-age", type=float, default=None, metavar="DAYS",
        help="remove entries last used more than this many days ago",
    )
    gc_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="then remove least recently used entries until at most "
             "N bytes remain",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "experiments": _cmd_experiments,
        "sweep": _cmd_sweep,
        "merge": _cmd_merge,
        "grid": _cmd_grid,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
