"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the algorithm registry with models and summaries.
* ``run`` — execute one algorithm on one workload and print the trace,
  optionally as a space-time diagram.
* ``experiments`` — print the compact experiment tables (the full,
  asserted versions live in ``benchmarks/``).
* ``sweep`` — execute a declarative case grid (stock, from a versioned
  ``--grid`` JSON file or directory of them, or a named ``--profile``)
  on the batch engine (:mod:`repro.engine`), on a selectable execution
  backend and kernel trace mode, optionally as one shard of a
  distributed run.
* ``orchestrate`` — drive a whole distributed sweep: plan shards,
  launch them on a worker inventory (``--local N`` subprocesses or a
  ``--workers-file hosts.toml`` of local/SSH machines), retry and
  reassign failed shards with backoff, and merge incrementally into
  one export.
* ``merge`` — recombine per-shard ``--json`` exports into the
  whole-grid result.
* ``grid validate`` — lint grid JSON files (or directories of them)
  without running anything.
* ``cache stats`` — inspect a result-cache directory (entries, bytes,
  lifetime hit rate, last gc).
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
    python -m repro sweep --grid grid.json --backend threads \
        --shard 0/2 --json shard0.json
    python -m repro sweep --grid experiments/ --json all.json
    python -m repro sweep --profile large --trace lean
    python -m repro sweep --profile xlarge --trace lean
    python -m repro sweep --profile xxlarge --trace lean \
        --spool xxl.jsonl --json xxl.json
    python -m repro orchestrate --grid grid.json --local 4 --json all.json
    python -m repro orchestrate --profile large --workers-file hosts.toml \
        --cache .sweep-cache --warm-cache --json large.json
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
tractable — pair it with ``--spool`` so the driver's memory stays
bounded.  ``repro grid validate FILE_OR_DIR...`` lints grid files for
CI without executing them.

``--spool FILE`` streams every record to an append-only JSONL spool as
it completes instead of accumulating the batch in memory
(:mod:`repro.engine.sink`): the driver holds one record at a time, a
killed run leaves the spool loadable as a clean partial result, and the
``--json`` export is rebuilt from the spool byte-identical to the
in-memory path.

Trace modes
-----------

``--trace {full,lean}`` selects the kernel's trace mode
(:func:`repro.sim.kernel.execute`).  ``lean`` — the sweep default —
skips all per-round trace records and materializes only decisions and
counters, which is everything a sweep record consumes; ``full`` drives
the automata identically but keeps the complete per-round
:class:`~repro.sim.trace.Trace` alive while each case runs.  Records,
exports and cache entries are **byte-identical** across modes.

Backends and shards
-------------------

``--backend`` picks the execution backend (:mod:`repro.engine.executors`):
``processes`` (default; ``--workers N`` sizes the pool, omit to
auto-size), ``threads``, or ``serial``.  Expansion is a pure function of
the spec, records are re-sorted into expansion order after execution, and
every backend therefore yields byte-identical output — any ``--json``
export of the same grid and seed diffs empty.

``--shard I/N`` runs only the cases with ``index % N == I``, so N
machines can split one grid file without coordination; each shard's
``--json`` export carries its case indices, and ``repro merge`` (or
:meth:`repro.engine.results.BatchResult.merge`) recombines the exports —
in any order — into output byte-identical to the unsharded run.

The ``sweep`` result cache
--------------------------

``--cache DIR`` threads a content-addressed on-disk record cache
(:mod:`repro.engine.cache`) through the engine: each case is keyed by
SHA-256 over (key-scheme tag, algorithm name, a source hash of the
algorithm's transitive module closure, a source hash of the simulation
kernel and record machinery, the schedule's canonical digest, the
proposals), so only cache *misses* ever reach the kernel.  Re-running an
identical grid against a warm cache executes zero cases and produces
byte-identical ``--json`` output; editing an algorithm's source
invalidates only that algorithm's entries (and its dependents'), while
editing the kernel or metrics invalidates everything.  The CLI prints
the hit/miss tally after each cached sweep; ``--no-cache`` bypasses a
configured ``--cache`` without having to edit scripted invocations, and
deleting the directory is always safe — it costs only recomputation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.algorithms.registry import available_algorithms, get_factory
from repro.analysis.diagram import render_run
from repro.analysis.metrics import check_consensus, summarize
from repro.analysis.tables import format_table
from repro.model.schedule import Schedule
from repro.sim.kernel import run_algorithm


def _build_workload(name: str, n: int, t: int, horizon: int,
                    sync_after: int):
    from repro.workloads import (
        async_prefix,
        block_crashes,
        coordinator_killer,
        serial_cascade,
        value_hiding_chain,
    )

    builders = {
        "failure_free": lambda: Schedule.failure_free(n, t, horizon),
        "cascade": lambda: serial_cascade(n, t, horizon),
        "hiding_chain": lambda: value_hiding_chain(n, t, horizon),
        "block": lambda: block_crashes(n, t, horizon),
        "killer2": lambda: coordinator_killer(n, t, horizon,
                                              rounds_per_cycle=2),
        "killer3": lambda: coordinator_killer(n, t, horizon,
                                              rounds_per_cycle=3),
        "async_prefix": lambda: async_prefix(n, t, horizon, k=sync_after),
    }
    if name not in builders:
        known = ", ".join(sorted(builders))
        raise SystemExit(f"unknown workload {name!r}; known: {known}")
    return builders[name]()


def _cmd_list(_args) -> int:
    rows = [
        (info.name, info.model, info.summary)
        for info in available_algorithms().values()
    ]
    print(format_table(["name", "model", "summary"], rows,
                       title="Registered consensus algorithms"))
    return 0


def _cmd_run(args) -> int:
    if args.diagram and args.trace == "lean":
        # Fail before the run, with the fix in the message: the diagram
        # renders per-round records, which lean traces do not carry.
        raise SystemExit(
            "repro run --diagram requires --trace full: lean traces "
            "record no per-round data to render"
        )
    factory = get_factory(args.algorithm)
    schedule = _build_workload(
        args.workload, args.n, args.t, args.horizon, args.sync_after
    )
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

    trace = run_algorithm(factory, schedule, proposals, trace=args.trace)
    print(schedule.describe())
    print()
    if args.diagram:
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
    algorithms = (
        tuple(name.strip() for name in args.algorithms.split(",") if name)
        if args.algorithms
        else DEFAULT_SWEEP_ALGORITHMS
    )
    return [(None, default_sweep_grid(
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
    ))]


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
        stream_batch,
    )

    workers = _parse_workers(args)
    shard = _parse_shard(args)
    grids = _load_grids(args)
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
        f"backend={executor.name}, trace={args.trace}"
    )
    if args.spool:
        # Stream to the spool with a bounded driver: no record is ever
        # accumulated in memory.  The canonical result (summaries,
        # --json export) is then rebuilt from the spool — byte-identical
        # to the in-memory path, per the engine's determinism contract.
        sink = JsonlRecordSink(args.spool)
        try:
            streamed = stream_batch(
                cases, sink=sink, executor=executor,
                cache=cache, trace=args.trace,
            )
        finally:
            sink.close()
        print(f"spooled {streamed} records to {args.spool}")
        result = BatchResult.load_spool(args.spool)
    else:
        result = run_batch(
            cases, executor=executor, cache=cache, trace=args.trace
        )
    rows = [summary.row() for summary in result.summaries()]
    print()
    print(format_table(
        list(AlgorithmSummary.ROW_HEADERS), rows,
        title=title,
    ))
    if cache is not None:
        print(f"\n{cache.describe()}")
        cache.flush_stats()
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


def _grid_pass_through_args(args) -> tuple[str, ...]:
    """The grid-selecting CLI prefix every orchestrated worker re-runs.

    Workers re-expand the grid themselves (``repro sweep --grid ...
    --shard I/N``), so the orchestrator forwards the *selection* — a
    grid file/directory path or a profile name (plus ``--seed``) —
    verbatim; byte-identity of the merged export rests on every worker
    agreeing on the expansion, which the engine's determinism contract
    guarantees for identical selections.
    """
    if bool(args.grid) == bool(args.profile):
        raise SystemExit(
            "orchestrate needs exactly one of --grid or --profile"
        )
    if args.grid:
        if args.seed is not None:
            raise SystemExit(
                "--grid and --seed are mutually exclusive: the grid "
                "file already defines the experiment"
            )
        return ("--grid", args.grid)
    prefix: tuple[str, ...] = ("--profile", args.profile)
    if args.seed is not None:
        prefix += ("--seed", str(args.seed))
    return prefix


def _orchestrate_workers(args):
    """The validated worker inventory (``--local N`` or ``--workers-file``)."""
    from repro.engine.orchestrator import (
        OrchestratorError,
        load_workers_file,
        local_workers,
    )

    if bool(args.workers_file) == bool(args.local):
        raise SystemExit(
            "orchestrate needs exactly one of --workers-file or --local N"
        )
    try:
        if args.local:
            return local_workers(args.local)
        return load_workers_file(args.workers_file)
    except OrchestratorError as exc:
        raise SystemExit(str(exc))


def _cmd_orchestrate(args) -> int:
    import shutil
    import tempfile

    from repro.engine import AlgorithmSummary, JsonlRecordSink
    from repro.engine.orchestrator import (
        OrchestratorError,
        build_backend,
        orchestrate,
    )

    grid_args = _grid_pass_through_args(args)
    workers = _orchestrate_workers(args)
    if args.grid and not os.path.exists(args.grid) and not any(
        worker.is_remote for worker in workers
    ):
        raise SystemExit(f"cannot read --grid {args.grid!r}: not found")
    shards = args.shards if args.shards is not None else 2 * len(workers)
    if shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {shards}")
    if args.retries < 0:
        raise SystemExit(f"--retries must be >= 0, got {args.retries}")
    if args.timeout is not None and args.timeout < 0:
        raise SystemExit(f"--timeout must be >= 0, got {args.timeout}")
    if args.backoff < 0:
        raise SystemExit(f"--backoff must be >= 0, got {args.backoff}")
    if args.warm_cache and not args.cache:
        raise SystemExit("--warm-cache needs --cache DIR to warm from")
    chaos = frozenset()
    if args.chaos_kill is not None:
        if not 0 <= args.chaos_kill < shards:
            raise SystemExit(
                f"--chaos-kill shard must be in 0..{shards - 1}, "
                f"got {args.chaos_kill}"
            )
        chaos = frozenset({args.chaos_kill})
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

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-orchestrate-")
    backend = build_backend(
        workers,
        grid_args=grid_args,
        workdir=workdir,
        cache=args.cache,
        trace=args.trace,
        worker_backend=args.worker_backend,
        chaos_kill=chaos,
    )

    def show(event) -> None:
        print(f"orchestrate {event.describe()}", flush=True)

    print(
        f"orchestrate: {shards} shards of "
        f"{' '.join(grid_args)} over {len(workers)} workers "
        f"({', '.join(worker.describe() for worker in workers)}), "
        f"retries={args.retries}, timeout={args.timeout or 'none'}"
    )
    sink = JsonlRecordSink(args.spool) if args.spool else None
    try:
        report = orchestrate(
            workers,
            backend,
            shards,
            retries=args.retries,
            timeout=args.timeout or None,
            backoff=args.backoff,
            heartbeat=args.heartbeat or None,
            warm=args.warm_cache,
            on_event=show,
            sink=sink,
        )
    except OrchestratorError as exc:
        raise SystemExit(str(exc))
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        print(f"spooled {sink.count} records to {args.spool}")

    print()
    print(report.describe())
    result = report.result
    if result.case_count:
        print()
        print(format_table(
            list(AlgorithmSummary.ROW_HEADERS),
            [summary.row() for summary in result.summaries()],
            title=f"Orchestrated sweep ({len(report.completed)}/"
                  f"{report.shard_count} shards)",
        ))
    if not report.complete:
        # Keep the per-attempt shard exports around for post-mortems,
        # and never write a partial result where a complete export is
        # expected — the .partial suffix makes the difference explicit.
        if args.json:
            partial = f"{args.json}.partial"
            result.save(partial)
            print(f"\nwrote PARTIAL result ({result.case_count} cases) "
                  f"to {partial}")
        print(f"shard attempt files kept in {workdir}")
        return 1
    if args.json:
        result.save(args.json)
        print(f"\nwrote {result.case_count} records to {args.json}")
    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    violations = result.violations()
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
    from repro.analysis.experiments import all_experiments

    for title, headers, rows in all_experiments():
        print(format_table(headers, rows, title=title))
        print()
    print("(Full, asserted experiment suite: "
          "pytest benchmarks/ --benchmark-only)")
    return 0


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
                            help="print a space-time diagram "
                                 "(requires --trace full)")
    run_parser.add_argument(
        "--trace", choices=("full", "lean"), default="full",
        help="kernel trace mode (default full; lean skips per-round "
             "records and cannot drive --diagram)",
    )

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
        "--trace", choices=("full", "lean"), default="lean",
        help="kernel trace mode (default lean: skip per-round trace "
             "records; output is byte-identical either way)",
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
        "--backend", choices=("serial", "processes", "threads"),
        default="processes",
        help="execution backend (default processes)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=None,
        help="pool size for processes/threads backends "
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
             "complete (bounded driver memory; summaries and --json are "
             "rebuilt from the spool, byte-identical to the in-memory "
             "path)",
    )
    sweep_parser.add_argument(
        "--cache", default="",
        help="content-addressed result cache directory: repeated "
             "identical grids only execute cache misses",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass --cache (run every case) without editing scripts",
    )

    orch_parser = sub.add_parser(
        "orchestrate",
        help="drive a whole distributed sweep: shards on workers, with "
             "retry/reassign and incremental merge",
    )
    orch_parser.add_argument(
        "--grid", default="",
        help="grid JSON file or directory to sweep (forwarded to every "
             "worker; remote workers resolve it against their checkout)",
    )
    orch_parser.add_argument(
        "--profile", default="",
        help="stock multi-grid preset to sweep instead of --grid "
             "(large, xlarge, xxlarge)",
    )
    orch_parser.add_argument(
        "--seed", type=int, default=None,
        help="reseed a --profile's random families (invalid with --grid)",
    )
    orch_parser.add_argument(
        "--workers-file", default="",
        help="TOML worker inventory (hosts.toml: [[workers]] tables "
             "with name/host/python/repo; see docs/engine.md)",
    )
    orch_parser.add_argument(
        "--local", type=int, default=0, metavar="N",
        help="use N local subprocess workers instead of a workers file",
    )
    orch_parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count to plan (default: 2x the worker count, so "
             "reassignment always has slack)",
    )
    orch_parser.add_argument(
        "--retries", type=int, default=2,
        help="retries per shard after its first failure (default 2)",
    )
    orch_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-attempt timeout (default 600; 0 disables)",
    )
    orch_parser.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base retry backoff, doubled per attempt (default 0.5)",
    )
    orch_parser.add_argument(
        "--heartbeat", type=float, default=15.0, metavar="SECONDS",
        help="liveness-probe interval for in-flight workers "
             "(default 15; 0 disables)",
    )
    orch_parser.add_argument(
        "--trace", choices=("full", "lean"), default="lean",
        help="kernel trace mode inside workers (default lean)",
    )
    orch_parser.add_argument(
        "--worker-backend", choices=("serial", "processes", "threads"),
        default="serial",
        help="execution backend inside each worker process (default "
             "serial: the orchestrator owns the parallelism)",
    )
    orch_parser.add_argument(
        "--cache", default="",
        help="shared result-cache directory forwarded to workers: a "
             "retried shard warm-hits everything its predecessor finished",
    )
    orch_parser.add_argument(
        "--warm-cache", action="store_true",
        help="pre-start cache warm per worker (ships --cache to remote "
             "workers; local workers share it already)",
    )
    orch_parser.add_argument(
        "--workdir", default="",
        help="directory for per-attempt shard exports (default: a "
             "temp dir, removed on success, kept on partial failure)",
    )
    orch_parser.add_argument(
        "--chaos-kill", type=int, default=None, metavar="SHARD",
        help="fault-injection: SIGKILL this shard's first attempt "
             "at spawn (CI exercises the retry path with this)",
    )
    orch_parser.add_argument(
        "--json", default="",
        help="write the merged result to this JSON file (byte-identical "
             "to a serial whole-grid sweep; partial results get a "
             ".partial suffix)",
    )
    orch_parser.add_argument(
        "--spool", default="",
        help="append accepted shards' records to this JSONL spool as "
             "they merge: a driver killed mid-run leaves every completed "
             "shard durable and loadable as a clean partial result",
    )

    merge_parser = sub.add_parser(
        "merge",
        help="recombine per-shard sweep --json exports canonically",
    )
    merge_parser.add_argument(
        "inputs", nargs="+",
        help="shard export files (any order)",
    )
    merge_parser.add_argument(
        "--json", required=True,
        help="write the merged result to this JSON file",
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
    from repro.devtools.cli import add_lint_arguments
    add_lint_arguments(lint_parser)

    cache_parser = sub.add_parser(
        "cache",
        help="inspect or collect a result-cache directory",
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
        help="remove entries older than this many days",
    )
    gc_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="then remove oldest entries until at most N bytes remain",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "experiments": _cmd_experiments,
        "sweep": _cmd_sweep,
        "orchestrate": _cmd_orchestrate,
        "merge": _cmd_merge,
        "grid": _cmd_grid,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
