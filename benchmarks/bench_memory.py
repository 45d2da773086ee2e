"""Driver-memory bench: streamed large-n sweeps stay under fixed RSS budgets.

The streaming path (``repro sweep --spool``, which passes a spool sink to
:func:`repro.engine.runner.run_cases`) keeps no record in the runner:
each lands in the append-only JSONL spool as it completes, and the
summaries and canonical export are rebuilt from the spool afterwards.
A serial run has one record in flight; a pooled run holds the executed
records until its pool is torn down; the rebuild holds one slotted
record per case.  This bench runs an n = 250 lean sweep through that path
in a child interpreter and checks the child's peak RSS against the
budget in ``benchmarks/memory_floor.json`` — the same pattern as the
nightly speedup floors: a deliberately generous ceiling, so only
structural regressions (the driver quietly accumulating records or
traces again) trip it, never allocator noise.

A pooled row runs the n = 250 sweep at the ``xxlarge`` profile's
t = 32 (horizon 102) on a two-worker process pool.  Its budget bounds
the driver only: workers build their own schedules from the cases'
recipes, so the driver holds no schedule.  When the driver built every
schedule before the pool forked it peaked near 48 MB.  A second pooled
row runs the same sweep against a fresh ``--cache``: the driver keys
each grid case by its recipe, so it builds nothing there either.  When
keying a cold cache built and digested every schedule in the driver it
peaked near 69 MB.

A many-case row runs 10,025 small cases (n = 9, t = 4, 1,000 instances
per family) on a two-worker pool with ``--json`` as well as the spool,
the path a user takes to get both a spool and an export.  Its driver
holds a record per case at two points in turn: the pool's drained
results, then the batch rebuilt from the spool for the summaries and
the export.  The
budget guards the per-case size of that state: the driver peaked near
45 MB when records carried an instance dict each and the export built a
plain-data copy of every record plus the joined records text; slotted
records written one at a time brought it near 32 MB.

A further row runs att2 alone at n = 1000 through the streamed path.  Its
Phase 1 grows Halt rows for t + 1 rounds; they live as int masks, so
the row guards against Halt (or any per-row set) being materialized
and retained again — when the rows were interned frozensets this
sweep peaked near 1.2 GB.

An import-floor row runs a one-case serial sweep against a fresh
``--cache`` and subtracts the peak of a bare ``python -c`` from the same
interpreter, so the row measures what importing and starting the sweep
path adds.  Its budget guards against OpenSSL coming back: every
SHA-256 the package computes goes through :mod:`repro.fingerprint`,
CPython's builtin module, and importing :mod:`hashlib` maps libcrypto,
3-4 MB more on every supported interpreter.

Peak RSS is a low-noise measurement (unlike one-shot wall-clock), so
the ``kernel-bench`` CI lane asserts the ceiling on every push via
``REPRO_BENCH_ASSERT_MEMORY=1``; without the knob the bench only
reports the number.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import emit

FLOOR_FILE = os.path.join(os.path.dirname(__file__), "memory_floor.json")

#: The measured sweep: one instance per family at n = 250, the two
#: delivery-bound algorithms that bracket the stock set's memory
#: behaviour (suspicion-set state vs counter state) — heavy enough to
#: expose accumulation, light enough for every push.
SWEEP_ARGS = (
    "sweep", "--n", "250", "--t", "16",
    "--algorithms", "adiamond_s,chandra_toueg",
    "--cases-per-family", "1", "--seed", "20260730",
    "--backend", "serial",
)
EXPECTED_CASES = 16  # 8 schedule families x 2 algorithms

#: The pooled row: the same algorithms at t = 32 on a two-worker pool.
POOLED_ARGS = (
    "sweep", "--n", "250", "--t", "32",
    "--algorithms", "adiamond_s,chandra_toueg",
    "--cases-per-family", "1", "--seed", "20260730",
    "--backend", "processes", "--workers", "2",
)

#: The many-case row: every stock algorithm over 1,000 small instances
#: per family on a two-worker pool, exported with ``--json`` too.
MANY_CASE_ARGS = (
    "sweep", "--n", "9", "--t", "4",
    "--cases-per-family", "1000", "--seed", "0",
    "--backend", "processes", "--workers", "2",
)
MANY_CASE_EXPECTED_CASES = 10_025

#: The n = 1000 row: att2 only, one instance per family.
N1000_ARGS = (
    "sweep", "--n", "1000", "--t", "32",
    "--algorithms", "att2",
    "--cases-per-family", "1", "--seed", "0",
    "--backend", "serial",
)
N1000_EXPECTED_CASES = 8  # 8 schedule families x 1 algorithm

#: The import-floor row: one case of att2 at n = 3 (shard 0 of the
#: eight failure-free and seeded families), serial, with a fresh cache.
IMPORT_FLOOR_ARGS = (
    "sweep", "--n", "3", "--t", "1",
    "--algorithms", "att2",
    "--cases-per-family", "1", "--seed", "0", "--shard", "0/8",
    "--backend", "serial",
)

#: A child's own peak RSS in KB, as ``peak``.  Linux keeps the spawning
#: process's peak in ``ru_maxrss`` across ``exec``, so there the child
#: reads its own image's high-water mark, ``VmHWM``.
_PEAK = """\
import resource, sys
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":  # ru_maxrss is bytes there, KB on Linux
    peak //= 1024
try:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(
            int(line.split()[1]) for line in status
            if line.startswith("VmHWM:")
        )
except (OSError, StopIteration):
    pass
"""

#: Child driver: run the CLI in a fresh interpreter and report that
#: process's own peak RSS, so the measurement can never be polluted by
#: pytest's (or earlier benches') high-water mark.
_CHILD = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    + _PEAK
    + 'print(json.dumps({"rc": rc, "peak_kb": peak}))\n'
)

#: A bare interpreter that reports its peak: the floor every sweep
#: starts from.
_BARE = _PEAK + "print(peak)\n"


def _streamed_sweep_peak_kb(args: tuple[str, ...], spool: str) -> int:
    """Peak RSS (KB) of a child driver streaming the sweep *args*."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *args, "--spool", spool],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, (
        f"streamed bench sweep failed (rc={proc.returncode}):\n"
        f"{proc.stdout}\n{proc.stderr}"
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["rc"] == 0, f"sweep exited {report['rc']}"
    return report["peak_kb"]


def _bare_peak_kb() -> int:
    """Peak RSS (KB) of a bare ``python -c`` of the same interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _BARE], capture_output=True, text=True,
        check=True,
    )
    return int(proc.stdout.split()[-1])


def _check_row(
    label: str, args: tuple[str, ...], expected_cases: int,
    budget_key: str, tmp_path, *, above_bare: bool = False,
    cause: str = "accumulating per-case or per-row state again",
) -> None:
    """Run one streamed row, report its peak and (on request) assert it.

    With *above_bare* the row's figure is the sweep's peak minus a bare
    interpreter's.
    """
    spool = str(tmp_path / "spool.jsonl")
    peak_kb = _streamed_sweep_peak_kb(args, spool)
    measured = "driver peak RSS"
    if above_bare:
        peak_kb -= _bare_peak_kb()
        measured = "peak RSS over a bare interpreter"

    with open(FLOOR_FILE, "r", encoding="utf-8") as handle:
        budget_kb = json.load(handle)[budget_key]
    emit(
        f"streamed {label} sweep: {measured} {peak_kb} KB "
        f"(budget {budget_kb} KB, "
        f"{100 * peak_kb / budget_kb:.0f}% of ceiling)"
    )

    # The run must actually have streamed: the spool alone rebuilds the
    # complete, canonically-ordered result.
    from repro.engine import BatchResult

    result = BatchResult.load_spool(spool)
    assert result.case_count == expected_cases
    assert not result.violations()

    if os.environ.get("REPRO_BENCH_ASSERT_MEMORY") == "1":
        assert peak_kb <= budget_kb, (
            f"streamed {label} sweep: {measured} {peak_kb} KB, over "
            f"the {budget_kb} KB budget in {FLOOR_FILE} — the sweep is "
            f"{cause}"
        )


@pytest.mark.smoke
def test_streamed_sweep_memory_ceiling(tmp_path):
    _check_row(
        "n=250", SWEEP_ARGS, EXPECTED_CASES,
        "streamed_sweep_peak_rss_kb", tmp_path,
    )


@pytest.mark.smoke
def test_import_floor_memory_ceiling(tmp_path):
    _check_row(
        "one-case cached",
        (*IMPORT_FLOOR_ARGS, "--cache", str(tmp_path / "cache")),
        1, "import_floor_peak_rss_kb", tmp_path, above_bare=True,
        cause="importing OpenSSL (hashlib) or another large module again",
    )


@pytest.mark.smoke
def test_pooled_sweep_driver_memory_ceiling(tmp_path):
    _check_row(
        "pooled n=250", POOLED_ARGS, EXPECTED_CASES,
        "pooled_sweep_driver_peak_rss_kb", tmp_path,
    )


@pytest.mark.smoke
def test_pooled_cold_cache_driver_memory_ceiling(tmp_path):
    _check_row(
        "pooled cold-cache n=250",
        (*POOLED_ARGS, "--cache", str(tmp_path / "cache")),
        EXPECTED_CASES, "pooled_cold_cache_driver_peak_rss_kb", tmp_path,
    )


def test_pooled_many_case_export_driver_memory_ceiling(tmp_path):
    export = tmp_path / "export.json"
    _check_row(
        "pooled 10,025-case --json",
        (*MANY_CASE_ARGS, "--json", str(export)),
        MANY_CASE_EXPECTED_CASES, "many_case_export_driver_peak_rss_kb",
        tmp_path,
    )
    from repro.engine import BatchResult

    assert BatchResult.load(str(export)) == BatchResult.load_spool(
        str(tmp_path / "spool.jsonl")
    )


def test_n1000_att2_sweep_memory_ceiling(tmp_path):
    _check_row(
        "n=1000 att2", N1000_ARGS, N1000_EXPECTED_CASES,
        "n1000_att2_sweep_peak_rss_kb", tmp_path,
    )
