"""End-to-end benchmark of ``repro sweep``, cold start included.

Run from the repository root::

    python3 sweepbench/run.py --workload smalln_warm --seed 3 --seconds 15 --trace 0
    python3 sweepbench/run.py --workload xlarge_pool --seed 3 --seconds 15 --trace 1
    python3 sweepbench/run.py --pin 0-15        # rewrite sweepbench/pins.json

Every timed sweep is a fresh ``python -m repro sweep`` subprocess with the
flags a user would pass and a pool pinned at ``--workers 2``.  Its wall
time runs from launch to exit; its CPU time and peak RSS come from
``wait4``, which covers the sweep and every pool worker it reaped.
Set-up runs the same grid once on ``--backend serial``.  That export is
the reference every timed export must match byte for byte, and for
``smalln_warm`` the same sweep fills the cache.  When ``pins.json``
holds a digest for the grid and seed, the reference must match it too.

``--trace 0`` repeats the timed sweep until ``--seconds`` have passed
and reports the end-to-end metrics as medians.  ``--trace 1`` runs one
untraced sweep, then the same sweep in-process under
:class:`tracing.Tracer`, and reports the per-layer metrics.  The metric
names and units are those of ``BENCHMARK.json``; the last line of
output is the JSON result.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
PINS = os.path.join(HERE, "pins.json")

#: The pool size every timed sweep pins with ``--workers``.
WORKERS = 2
#: A sweep still running after this long is killed; its cases fail.
SWEEP_TIMEOUT_S = 150.0
SAFE_LINE = "safety (agreement + validity): ok on every case"

#: Grid-selecting flags; ``--seed`` is appended per run.
GRIDS = {
    "xlarge": ("--profile", "xlarge"),
    "smalln": ("--n", "9", "--t", "4", "--cases-per-family", "250"),
}


@dataclass(frozen=True)
class Workload:
    grid: str
    cache: str  # "" none, "fresh" new per sweep, "warm" filled in set-up
    spool: bool
    min_sweeps: int = 1


WORKLOADS = {
    # One xlarge sweep takes ~26 s; the host's speed drifts by 10-20% over
    # tens of seconds, so a single sweep is too short a sample.
    "xlarge_pool": Workload("xlarge", cache="", spool=True, min_sweeps=2),
    "smalln_cold": Workload("smalln", cache="fresh", spool=False),
    "smalln_warm": Workload("smalln", cache="warm", spool=False),
}


@dataclass
class Sweep:
    """One finished ``repro sweep`` subprocess."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    cases: int
    digest: str
    problems: list[str] = field(default_factory=list)


def _sha256(path: str) -> str:
    if not os.path.isfile(path):
        return ""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_output(
    text: str, code: int | str | None, export: str
) -> tuple[int, str, list[str]]:
    """Case count, export digest and problems of one sweep's output."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if SAFE_LINE not in text:
        problems.append("no 'safety ... ok' line")
    match = re.search(r"^sweep: (\d+) cases", text, re.M)
    cases = int(match.group(1)) if match else 0
    if f"wrote {cases} records to" not in text:
        problems.append("export not written")
    return cases, _sha256(export), problems


def run_sweep(args: list[str], export: str, log: str) -> Sweep:
    """Run ``python -m repro sweep ARGS --json EXPORT`` and measure it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part
    )
    command = [sys.executable, "-m", "repro", "sweep", *args, "--json", export]
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=out,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        # The sweep leads its own process group, so a stuck run is
        # killed together with its pool workers.
        watchdog = threading.Timer(
            SWEEP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log, encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    cases, digest, problems = check_output(text, proc.returncode, export)
    return Sweep(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        cases=cases,
        digest=digest,
        problems=problems,
    )


def load_pins() -> dict:
    if not os.path.isfile(PINS):
        return {}
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def reference(grid: str, seed: int, work: str, cache: str = "") -> Sweep:
    """The serial sweep of *grid* whose export every timed sweep must match."""
    args = [*GRIDS[grid], "--seed", str(seed), "--backend", "serial"]
    if cache:
        args += ["--cache", cache]
    ref = run_sweep(
        args, os.path.join(work, "reference.json"),
        os.path.join(work, "reference.log"),
    )
    pinned = load_pins().get(grid, {}).get(str(seed))
    if pinned is not None and ref.digest != pinned:
        ref.problems.append("serial export differs from the pinned digest")
    return ref


def sweep_args(workload: Workload, seed: int, work: str, tag: str) -> list[str]:
    args = [*GRIDS[workload.grid], "--seed", str(seed),
            "--workers", str(WORKERS)]
    if workload.spool:
        args += ["--spool", os.path.join(work, f"{tag}.jsonl")]
    if workload.cache == "fresh":
        args += ["--cache", os.path.join(work, f"{tag}.cache")]
    elif workload.cache == "warm":
        args += ["--cache", os.path.join(work, "cache")]
    return args


def timed_sweep(
    workload: Workload, seed: int, work: str, tag: str, ref: Sweep
) -> Sweep:
    """One user-flag sweep, checked against the reference, then cleaned up."""
    export = os.path.join(work, f"{tag}.json")
    sweep = run_sweep(
        sweep_args(workload, seed, work, tag), export,
        os.path.join(work, f"{tag}.log"),
    )
    if ref.problems:
        sweep.problems.append("no valid serial reference")
    elif sweep.digest != ref.digest:
        sweep.problems.append("export differs from the serial reference")
    for leftover in (export, os.path.join(work, f"{tag}.jsonl")):
        if os.path.exists(leftover):
            os.remove(leftover)
    shutil.rmtree(os.path.join(work, f"{tag}.cache"), ignore_errors=True)
    return sweep


def traced_sweep(
    name: str, workload: Workload, seed: int, work: str, ref: Sweep
) -> tuple[dict[str, float], float, list[str]]:
    """The sweep run in-process under the tracer.

    Returns the per-layer metrics, the traced wall time and any problems
    with the traced run's output.
    """
    sys.path.insert(0, SRC)
    import tracing
    from repro.cli import main as repro_main

    export = os.path.join(work, "traced.json")
    argv = ["sweep", *sweep_args(workload, seed, work, "traced"),
            "--json", export]
    tracer = tracing.Tracer(name)
    printed = io.StringIO()
    tracer.install()
    try:
        with tracer.span("trace.run"), redirect_stdout(printed):
            try:
                code: int | str | None = repro_main(argv)
            except SystemExit as exc:
                code = exc.code
        inflation = tracer.cpu_inflation()
    finally:
        tracer.uninstall()
    root = next(span for span in tracer.spans if span.name == "trace.run")
    _cases, digest, problems = check_output(printed.getvalue(), code, export)
    if ref.problems or digest != ref.digest:
        problems.append("traced export differs from the serial reference")
    metrics = tracer.metrics()
    metrics["executors.cpu_inflation"] = inflation
    metrics["results.export_mb"] = (
        os.path.getsize(export) / 2**20 if os.path.isfile(export) else 0.0
    )
    tracer.write(os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl"))
    return metrics, root.end - root.start, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result line."""
    workload = WORKLOADS[name]
    spec = load_spec()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        start = time.perf_counter()
        cache = os.path.join(work, "cache") if workload.cache == "warm" else ""
        ref = reference(workload.grid, seed, work, cache)
        setup_s = time.perf_counter() - start

        sweeps: list[Sweep] = []
        start = time.perf_counter()
        wanted_sweeps = 1 if trace else workload.min_sweeps
        while len(sweeps) < wanted_sweeps or (
            not trace and time.perf_counter() - start < seconds
        ):
            sweeps.append(
                timed_sweep(workload, seed, work, f"rep{len(sweeps)}", ref)
            )
        expected = max(ref.cases, *(s.cases for s in sweeps), 1)
        attempted = len(sweeps) * expected
        failed = sum(expected for s in sweeps if s.problems)
        problems = [p for s in sweeps for p in s.problems] + ref.problems

        samples = {
            "cases_per_s": [s.cases / s.wall_s for s in sweeps],
            "cpu_s": [s.cpu_s for s in sweeps],
            "peak_rss_mb": [s.rss_mb for s in sweeps],
            "setup_s": [setup_s],
        }
        if trace:
            layer, traced_wall, traced_problems = traced_sweep(
                name, workload, seed, work, ref
            )
            attempted += expected
            failed += expected if traced_problems else 0
            problems += traced_problems
            layer["trace.overhead_ratio"] = traced_wall / sweeps[0].wall_s
            layer["failed_ratio"] = failed / attempted
            samples = {key: [value] for key, value in layer.items()}
        wanted = spec["per_layer" if trace else "end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    row = {
        "workload": name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": nproc(),
        "workers": WORKERS, "sweeps": len(sweeps), "problems": problems,
        "metrics": {},
    }
    metrics = {}
    for metric in wanted:
        values = samples[metric["name"]]
        q1, median, q3 = quartiles(values)
        metrics[metric["name"]] = {"value": median, "unit": metric["unit"]}
        row["metrics"][metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "n": len(values),
        }
        print(f"{metric['name']:<34} {median:>14.6g} {metric['unit']:<6} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    print(json.dumps(row, sort_keys=True))
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as out:
        out.write(json.dumps(row, sort_keys=True) + "\n")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def pin(seeds: list[int]) -> None:
    """Record each grid's serial export digest for *seeds* in pins.json."""
    pins = load_pins()
    os.makedirs(WORK, exist_ok=True)
    for grid in GRIDS:
        for seed in seeds:
            work = tempfile.mkdtemp(prefix="pin-", dir=WORK)
            try:
                ref = reference(grid, seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if ref.problems:
                raise SystemExit(f"{grid} seed {seed}: {ref.problems}")
            pins.setdefault(grid, {})[str(seed)] = ref.digest
            print(f"{grid} seed {seed}: {ref.digest}", file=sys.stderr)
    with open(PINS, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=1, sort_keys=True)
        out.write("\n")


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="LOW-HIGH",
                        help="rewrite pins.json for this seed range")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        pin(parse_seeds(args.pin))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if WORKERS > nproc():
        print(f"--workers {WORKERS} exceeds nproc={nproc()}; refusing to run "
              f"an oversubscribed pool", file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
