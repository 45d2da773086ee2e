"""Kernel microbenchmark: round-view delivery vs the reference kernel.

Two claims, both load-bearing for large-n sweeps (docs/performance.md):

* **equivalence** — the compiled kernel (:func:`repro.sim.kernel.execute`)
  produces full traces, counters included, identical to the original
  query-at-a-time kernel (``execute_reference`` in
  ``tests/kernel_oracle.py``), and the lean runs the engine makes
  produce byte-identical :class:`~repro.analysis.sweep.SweepRecord`\\ s;
* **speed** — the round-view delivery pipeline (shared pre-bucketed
  inboxes, no per-receiver Message materialization) beats the
  pre-compile pipeline (*reference* arm: query-at-a-time kernel, full
  trace) by a growing factor as n grows.

Besides the printed table, the run persists machine-readable per-system
timings to ``BENCH_kernel.json`` (path override:
``REPRO_BENCH_JSON``); the ``kernel-bench`` CI lane uploads it as an
artifact so the perf trajectory is tracked across pushes.  The XXL
rows (n = 250/500/1000, the bitset data plane at scale) land in the
same file under ``xxl_systems`` — they time the full default sweep set
with a ``per_algorithm_ms`` breakdown (so the trajectory attributes a
future ceiling to its owner, not just to a total).  The ``att2_focus``
rows isolate the
run plane: both A_{t+2} variants and the Chandra–Toueg baseline at
n = 500, plane engaged vs opted out, with the share of each kind of
round (Phase 1, round t + 2, C) the plane claimed.

The ``kernel-bench`` CI lane runs this file (``--benchmark-disable``) on
every push.  The equivalence assertions are unconditional; the
wall-clock speedup floors (2x, deliberately far below the measured
ratios on quiet hardware — see docs/performance.md) are asserted only
when ``REPRO_BENCH_ASSERT_SPEEDUP=1``, because a one-shot timing on a
noisy shared runner is a structural flake source for unrelated pushes.
The nightly lane sets the knob; the per-push lane just prints the table.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms.base import make_automata
from repro.algorithms.chandra_toueg import ChandraTouegES
from repro.algorithms.registry import get_factory
from repro.core.att2 import ATt2
from repro.core.att2_optimized import ATt2Optimized
from repro.analysis.sweep import SweepRecord, case_record, run_case
from repro.analysis.tables import format_table
from repro.engine.grids import DEFAULT_SWEEP_ALGORITHMS
from repro.model.schedule import Schedule
from repro.sim.compiled import compile_schedule
from repro.sim.kernel import execute, run_algorithm
from repro.sim.random_schedules import random_es_schedule
from conftest import emit

# The reference kernel is a test oracle; it lives with the tests.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from kernel_oracle import execute_reference

#: Systems measured against the full pre-compile *reference* pipeline
#: (it is O(n²·horizon) method calls per case — impractical past n=25).
SYSTEMS = ((9, 4), (25, 8))
#: The large-n rows: view delivery in both trace modes.
LARGE_SYSTEMS = ((50, 16), (100, 32))
#: The n >= 250 milestone rows (bitset data plane): t pinned so the
#: rounds-to-decide stay constant and the rows isolate per-round n²
#: data-plane cost.
XXL_SYSTEMS = ((250, 16), (500, 16), (1000, 16))
#: Same-shape baseline row so the XXL trajectory compares like for like
#: (same t, same algorithm set) against n = 100.
XXL_BASELINE = (100, 16)
#: att2 used to be excluded here: its per-receiver ESTIMATE fold did
#: O(n²) *automaton-state* work per round, swamping the delivery plane
#: past n ≈ 100.  The batched Phase-1 plane
#: (:mod:`repro.sim.phase1_plane`) removed that ceiling, so the XXL
#: rows now time the full sweep set — with a per-algorithm breakdown
#: so any future ceiling names its owner.
XXL_ALGORITHMS = DEFAULT_SWEEP_ALGORITHMS
#: The focus rows (n, t): plane-engaged vs plane-opted-out per-case
#: cost for both A_{t+2} variants and the Chandra–Toueg baseline,
#: cheap enough for the per-push kernel-bench lane.
FOCUS_SYSTEM = (500, 16)
FOCUS_ALGORITHMS = ("att2", "att2_optimized", "chandra_toueg")
#: The kinds of round the plane claims, as ``Phase1Plane.round_kind``
#: names them: Phase 1, round t + 2, and C's (Chandra–Toueg) rounds.
ROUND_KINDS = ("phase1", "t+2", "C")
SEED = 20260730

#: Where the machine-readable timings land (the CI lane uploads this).
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_kernel.json")


def _bench_schedules(n: int, t: int):
    """The two bench workloads: the paper's headline failure-free run and
    a seeded random ES schedule (crashes, delays, losses)."""
    horizon = max(12, 3 * t + 6)
    return (
        ("failure_free", Schedule.failure_free(n, t, horizon)),
        ("random_es", random_es_schedule(n, t, SEED, horizon=horizon)),
    )


def _reference_case(
    algorithm: str, workload: str, schedule: Schedule, proposals
) -> SweepRecord:
    """The pre-compile per-case pipeline: query-at-a-time kernel, full
    trace."""
    factory = get_factory(algorithm)
    trace = execute_reference(
        make_automata(factory, schedule.n, schedule.t, proposals), schedule
    )
    return case_record(algorithm, workload, trace)


class _NoPlaneATt2(ATt2):
    """Stock A_{t+2} minus the run plane opt-in."""

    @classmethod
    def plane_rounds(cls, t):
        return None


class _NoPlaneATt2Optimized(ATt2Optimized):
    @classmethod
    def plane_rounds(cls, t):
        return None


class _NoPlaneChandraToueg(ChandraTouegES):
    @classmethod
    def plane_rounds(cls, t):
        return None


_PLANE_OPT_OUTS = {
    "att2": _NoPlaneATt2.factory(),
    "att2_optimized": _NoPlaneATt2Optimized.factory(),
    "chandra_toueg": _NoPlaneChandraToueg,
}


def _plane_opt_out_factory(algorithm: str):
    """A factory whose automata opt out of the run plane.

    Declaring no plane rounds keeps every other optimization (lazy
    round-view buckets, single-pass folds) in place, so plane-vs-opt-out
    ratios attribute exactly the plane's batching — not the rest of the
    view pipeline.
    """
    return _PLANE_OPT_OUTS[algorithm]


def _assert_equivalent() -> int:
    """Compiled output must equal reference output, case for case."""
    checked = 0
    for n, t in SYSTEMS:
        proposals = list(range(n))
        for workload, schedule in _bench_schedules(n, t):
            for algorithm in DEFAULT_SWEEP_ALGORITHMS:
                factory = get_factory(algorithm)
                reference = execute_reference(
                    make_automata(factory, n, t, proposals), schedule
                )
                compiled = execute(
                    make_automata(factory, n, t, proposals), schedule,
                    trace="full",
                )
                assert compiled == reference, (
                    f"compiled full trace diverged from the reference "
                    f"kernel: {algorithm} on {workload} (n={n}, t={t})"
                )
                ref_record = _reference_case(
                    algorithm, workload, schedule, proposals
                )
                lean_record, _trace = run_case(
                    algorithm, factory, workload, schedule, proposals,
                )
                assert lean_record == ref_record, (
                    f"lean record diverged from the reference pipeline: "
                    f"{algorithm} on {workload} (n={n}, t={t})"
                )
                checked += 1
    return checked


@pytest.mark.smoke
def test_compiled_kernel_matches_reference(benchmark):
    checked = benchmark.pedantic(_assert_equivalent, rounds=1, iterations=1)
    assert checked == len(SYSTEMS) * 2 * len(DEFAULT_SWEEP_ALGORITHMS)


def _per_case_seconds(
    arm, schedules, repeats: int,
    algorithms: tuple = DEFAULT_SWEEP_ALGORITHMS,
) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for workload, schedule in schedules:
            for algorithm in algorithms:
                arm(algorithm, workload, schedule)
    cases = repeats * len(schedules) * len(algorithms)
    return (time.perf_counter() - start) / cases


def speedup_measurements() -> list[dict]:
    """Measured per-case wall-clock for every arm, per system.

    The reference arm is measured only where it is affordable
    (``SYSTEMS``); the large-n rows time the view pipeline in both
    trace modes.  Compile memos are warmed before timing — in a sweep
    the plan is compiled once per schedule and shared by every
    algorithm.
    """
    measurements = []
    for n, t in SYSTEMS + LARGE_SYSTEMS:
        proposals = list(range(n))
        schedules = _bench_schedules(n, t)

        def reference_arm(algorithm, workload, schedule):
            _reference_case(algorithm, workload, schedule, proposals)

        def full_arm(algorithm, workload, schedule):
            case_record(algorithm, workload, run_algorithm(
                get_factory(algorithm), schedule, proposals, trace="full"
            ))

        def lean_arm(algorithm, workload, schedule):
            run_case(algorithm, get_factory(algorithm), workload,
                     schedule, proposals)

        for workload, schedule in schedules:  # warm the compile memos
            lean_arm("att2", workload, schedule)
        repeats = 3 if n < 20 else (2 if n < 80 else 1)
        with_reference = (n, t) in SYSTEMS
        reference = (
            _per_case_seconds(reference_arm, schedules, repeats)
            if with_reference else None
        )
        full = _per_case_seconds(full_arm, schedules, repeats)
        lean = _per_case_seconds(lean_arm, schedules, repeats)
        measurements.append({
            "n": n,
            "t": t,
            "reference_ms": (
                round(reference * 1e3, 3) if reference is not None else None
            ),
            "full_ms": round(full * 1e3, 3),
            "lean_ms": round(lean * 1e3, 3),
            "reference_speedup": (
                round(reference / lean, 2) if reference is not None else None
            ),
        })
    return measurements


def _persist_json(measurements: list[dict]) -> None:
    data = {
        "version": 1,
        "seed": SEED,
        "algorithms": list(DEFAULT_SWEEP_ALGORITHMS),
        "workloads": ["failure_free", "random_es"],
        "units": "ms_per_case",
        "systems": measurements,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.smoke
def test_compiled_kernel_speedup(benchmark):
    measurements = benchmark.pedantic(
        speedup_measurements, rounds=1, iterations=1
    )
    _persist_json(measurements)

    def fmt(value, suffix=""):
        return "-" if value is None else f"{value:.2f}{suffix}"

    rows = [
        (
            m["n"], m["t"],
            fmt(m["reference_ms"]), fmt(m["full_ms"]), fmt(m["lean_ms"]),
            fmt(m["reference_speedup"], "x"),
        )
        for m in measurements
    ]
    emit(
        format_table(
            ["n", "t", "reference ms/case",
             "view-full ms/case", "view-lean ms/case", "vs reference"],
            rows,
            title="Kernel microbench: per-case cost — pre-compile "
                  "reference vs round-view delivery "
                  "(5 stock algorithms, ff + random ES)",
        )
    )
    emit(f"\nwrote per-system timings to {BENCH_JSON}")
    # Timing floors only where the operator opted in (nightly lane):
    # a one-shot measurement on a shared runner must not fail pushes.
    # See docs/performance.md for reference numbers on quiet hardware
    # (≈ 13x vs the reference pipeline at n = 25 — the floor leaves
    # generous headroom).
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        for m in measurements:
            if m["n"] >= 20 and m["reference_speedup"] is not None:
                assert m["reference_speedup"] >= 2.0, (
                    f"view-lean kernel only {m['reference_speedup']:.2f}x "
                    f"faster than the reference pipeline at n={m['n']}"
                )


def xxl_measurements() -> list[dict]:
    """The n >= 250 rows: per-case cost of the bitset data plane at scale.

    Measures the full sweep set (:data:`XXL_ALGORITHMS`) lean per-case
    cost at every XXL size and at the :data:`XXL_BASELINE` row — one
    timing per algorithm, so the ``per_algorithm_ms`` breakdown
    attributes each row's cost.  An att2 arm with the batched Phase-1
    plane opted out isolates the plane's contribution per row.
    """
    measurements = []
    for n, t in (XXL_BASELINE,) + XXL_SYSTEMS:
        proposals = list(range(n))
        schedules = _bench_schedules(n, t)

        def lean_arm(algorithm, workload, schedule):
            run_case(algorithm, get_factory(algorithm), workload,
                     schedule, proposals)

        def noplane_arm(algorithm, workload, schedule):
            run_case(algorithm, _plane_opt_out_factory(algorithm),
                     workload, schedule, proposals)

        for workload, schedule in schedules:  # warm the compile memos
            lean_arm("chandra_toueg", workload, schedule)
        per_algorithm = {
            algorithm: round(
                _per_case_seconds(lean_arm, schedules, 1, (algorithm,))
                * 1e3,
                3,
            )
            for algorithm in XXL_ALGORITHMS
        }
        lean = sum(per_algorithm.values()) / len(per_algorithm) / 1e3
        noplane = _per_case_seconds(noplane_arm, schedules, 1, ("att2",))
        measurements.append({
            "n": n,
            "t": t,
            "algorithms": list(XXL_ALGORITHMS),
            "lean_ms": round(lean * 1e3, 3),
            "per_algorithm_ms": per_algorithm,
            "att2_noplane_ms": round(noplane * 1e3, 3),
            "plane_speedup": round(
                noplane * 1e3 / per_algorithm["att2"], 2
            ),
        })
    return measurements


def _merge_rows(key: str, rows: list[dict]) -> None:
    """Merge *rows* into ``BENCH_kernel.json`` under *key* (additive).

    The speedup test writes the base document first in a full run; a
    partial run (test selection) still produces a valid file.
    """
    try:
        with open(BENCH_JSON, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        data = {"version": 1, "seed": SEED, "units": "ms_per_case"}
    data[key] = rows
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# Deliberately NOT smoke-marked: ~5 min of XXL measurement belongs in
# the kernel-bench and nightly lanes (whole-file runs), not the fast
# smoke subset.
def test_kernel_xxl_scaling(benchmark):
    measurements = benchmark.pedantic(
        xxl_measurements, rounds=1, iterations=1
    )
    _merge_rows("xxl_systems", measurements)

    def fmt(value, suffix=""):
        return "-" if value is None else f"{value:.2f}{suffix}"

    rows = [
        (m["n"], m["t"], fmt(m["lean_ms"]),
         fmt(m["per_algorithm_ms"]["att2"]), fmt(m["att2_noplane_ms"]),
         fmt(m["plane_speedup"], "x"))
        for m in measurements
    ]
    emit(
        format_table(
            ["n", "t", "view-lean ms/case",
             "att2 ms/case", "att2 no-plane", "plane"],
            rows,
            title="Kernel XXL scaling: per-case cost, full sweep set "
                  "(bitset data plane; att2 plane attribution)",
        )
    )
    emit(f"\nmerged XXL rows into {BENCH_JSON}")
    # Same opt-in as the other floors: one-shot timings on a shared
    # runner must not fail pushes.  The plane floors guard the batched
    # Phase-1 fold.  Its advantage grows with n (the per-receiver fold
    # it replaces is O(n) per receiver): ~1.7-2.4x measured at
    # n = 250, ~3-7x at n = 500, ~4-5x at n = 1000.  So n = 250 gets a
    # guard-against-pessimization floor and n >= 500 the usual
    # generous 2x.
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        for m in measurements:
            if m["n"] >= 250:
                floor = 2.0 if m["n"] >= 500 else 1.2
                assert m["plane_speedup"] >= floor, (
                    f"batched Phase-1 plane only "
                    f"{m['plane_speedup']:.2f}x faster than the "
                    f"opted-out fold at n={m['n']} (floor {floor}x)"
                )


def _plane_counters(algorithm: str, schedules, proposals) -> dict:
    """The plane's deterministic counters over lean runs of *schedules*.

    ``fold_share`` is the folds the plane computed per receiver of its
    claimed Phase-1 rounds (1.0: nothing shared; ``None`` without
    any); ``claimed_share`` maps each of :data:`ROUND_KINDS` to the
    share of the rounds of that kind the runs played that the plane
    claimed (``None`` where none was played).
    """
    folds = receivers = 0
    played = dict.fromkeys(ROUND_KINDS, 0)
    claimed = dict.fromkeys(ROUND_KINDS, 0)
    for _workload, schedule in schedules:
        automata = make_automata(
            get_factory(algorithm), schedule.n, schedule.t, proposals
        )
        trace = execute(automata, schedule, trace="lean")
        plane = automata[0]._plane
        completers = compile_schedule(schedule).completers
        folds += plane.claimed_folds
        for k in range(1, trace.rounds_executed + 1):
            kind = plane.round_kind(k)
            if kind is not None:
                played[kind] += 1
        for k in plane.claimed_rounds:
            kind = plane.round_kind(k)
            claimed[kind] += 1
            if kind == "phase1":
                receivers += len(completers[k])
    return {
        "fold_share": round(folds / receivers, 4) if receivers else None,
        "claimed_share": {
            kind: round(claimed[kind] / played[kind], 4)
            if played[kind] else None
            for kind in ROUND_KINDS
        },
    }


def att2_focus_measurements() -> list[dict]:
    """Plane-attribution rows at the :data:`FOCUS_SYSTEM` size.

    Times the two A_{t+2} variants and the Chandra–Toueg baseline at
    n = 500 — the run plane engaged (stock factories) vs opted out (no
    plane rounds declared, everything else identical).  A few seconds
    of work, so the per-push kernel-bench lane runs it under an
    explicit timeout and a plane regression surfaces long before the
    nightly XXL floors see it.  Each row also carries the plane's
    counters (:func:`_plane_counters`), so the uploaded
    ``BENCH_kernel.json`` tracks how often claimed rounds reuse one
    receiver's fold and which share of each kind of round was claimed.
    """
    n, t = FOCUS_SYSTEM
    proposals = list(range(n))
    schedules = _bench_schedules(n, t)

    def lean_arm(algorithm, workload, schedule):
        run_case(algorithm, get_factory(algorithm), workload,
                 schedule, proposals)

    def noplane_arm(algorithm, workload, schedule):
        run_case(algorithm, _plane_opt_out_factory(algorithm),
                 workload, schedule, proposals)

    for workload, schedule in schedules:  # warm the compile memos
        lean_arm("att2", workload, schedule)
    rows = []
    for algorithm in FOCUS_ALGORITHMS:
        # An opt-out that still built a plane would time the plane
        # against itself.
        automata = make_automata(
            _plane_opt_out_factory(algorithm), n, t, proposals
        )
        execute(automata, schedules[0][1], trace="lean")
        assert automata[0]._plane is None, algorithm
        plane = _per_case_seconds(lean_arm, schedules, 1, (algorithm,))
        noplane = _per_case_seconds(
            noplane_arm, schedules, 1, (algorithm,)
        )
        rows.append({
            "algorithm": algorithm,
            "n": n,
            "t": t,
            "plane_ms": round(plane * 1e3, 3),
            "noplane_ms": round(noplane * 1e3, 3),
            "plane_speedup": round(noplane / plane, 2),
            **_plane_counters(algorithm, schedules, proposals),
        })
    return rows


# Not smoke-marked: a handful of n = 500 cases is too heavy for the
# smoke subset, but cheap enough that the kernel-bench lane gives it
# its own timeout-bounded step (see .github/workflows/ci.yml).
def test_kernel_att2_focus(benchmark):
    rows = benchmark.pedantic(
        att2_focus_measurements, rounds=1, iterations=1
    )
    _merge_rows("att2_focus", rows)

    def share(value):
        return "-" if value is None else f"{value:.4f}"

    table_rows = [
        (r["algorithm"], r["n"], r["t"], f"{r['plane_ms']:.2f}",
         f"{r['noplane_ms']:.2f}", f"{r['plane_speedup']:.2f}x",
         share(r["fold_share"]),
         *(share(r["claimed_share"][kind]) for kind in ROUND_KINDS))
        for r in rows
    ]
    emit(
        format_table(
            ["algorithm", "n", "t", "plane ms/case",
             "no-plane ms/case", "plane speedup",
             "folds / claimed receiver", "claimed phase 1",
             "claimed t+2", "claimed C"],
            table_rows,
            title="Focus rows: run plane vs opted out "
                  "(lean trace, ff + random ES)",
        )
    )
    emit(f"\nmerged focus rows into {BENCH_JSON}")
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        for r in rows:
            assert r["plane_speedup"] >= 2.0, (
                f"run plane only {r['plane_speedup']:.2f}x faster than "
                f"the opted-out path for {r['algorithm']} at n={r['n']}"
            )
