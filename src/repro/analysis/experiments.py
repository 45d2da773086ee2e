"""The paper's table-shaped experiments, each defined exactly once.

E5–E8, E10 and E11 are built here and nowhere else.  The E-benches
(``benchmarks/bench_*.py``) time these functions and assert the paper's
claims over the rows they return; ``python -m repro experiments`` and the
examples print them.  Each bound column (t + 2, 2t + 2, k + f + 2, ...)
is written once, in the function that builds its table.

The grid-shaped experiments (E5–E8) build declarative case lists and run
them on the batch engine (:mod:`repro.engine`), raising
:class:`~repro.errors.ConsensusViolation` if any run breaks agreement,
validity or termination.  E10 and E11 inspect traces and detector
histories directly.

Every function returns ``(title, headers, rows)``; :func:`render` formats
one with :func:`repro.analysis.tables.format_table`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.metrics import check_agreement
from repro.analysis.tables import format_table
from repro.core.att2 import ATt2
from repro.detectors import (
    EventuallyPerfect,
    EventuallyStrong,
    Perfect,
    simulate_from_schedule,
)
from repro.engine import Case, family, run_batch
from repro.engine.grids import ScheduleRecipe
from repro.errors import ConsensusViolation
from repro.model.es import enforce_es
from repro.model.schedule import Schedule
from repro.sim.kernel import run_algorithm
from repro.sim.random_schedules import random_es_schedule, random_scs_schedule
from repro.workloads import partitioned_prefix

Table = tuple[str, list[str], list[tuple]]


def render(table: Table) -> str:
    """The table as the CLI, the benches and the examples print it."""
    title, headers, rows = table
    return format_table(headers, rows, title=title)


def _recipe(
    kind: str, n: int, t: int, horizon: int, **params: int
) -> ScheduleRecipe:
    """The schedule of the deterministic family *kind*, as a recipe."""
    spec = family(kind, kind, horizon=horizon, **params)
    return ScheduleRecipe(spec, n, t, 0)


def _batch(
    entries: Iterable[tuple[str, str, ScheduleRecipe, Sequence[int]]],
):
    """Run ``(algorithm, workload, recipe, proposals)`` entries serially.

    Raises :class:`ConsensusViolation` naming every run that broke
    agreement or validity, or left a correct process undecided.
    """
    result = run_batch([
        Case(index, algorithm, workload, recipe, tuple(proposals))
        for index, (algorithm, workload, recipe, proposals)
        in enumerate(entries)
    ])
    bad = [
        f"{record.algorithm} on {record.workload}"
        for record in result.records
        if not (record.agreement_ok and record.validity_ok)
        or record.correct_undecided
    ]
    if bad:
        raise ConsensusViolation("consensus violated: " + ", ".join(bad))
    return result


def _last_crash(schedule: Schedule) -> int:
    return max((s.round for s in schedule.crashes.values()), default=0)


def price_of_indulgence() -> Table:
    """E5: worst-case synchronous decision rounds, per algorithm."""
    n, t, horizon = 5, 2, 24
    workloads = [
        ("failure_free", _recipe("failure_free", n, t, horizon)),
        ("cascade", _recipe("cascade", n, t, horizon)),
        ("hiding_chain", _recipe("hiding_chain", n, t, horizon)),
        ("killer2", _recipe("killer", n, t, horizon, rounds_per_cycle=2)),
        ("killer3", _recipe("killer", n, t, horizon, rounds_per_cycle=3)),
    ]
    algorithms = [
        ("floodset", "FloodSet (SCS)", t + 1),
        ("att2", "A_t+2 (ES)", t + 2),
        ("adiamond_s", "A_dS (ES)", t + 2),
        ("hurfin_raynal", "Hurfin-Raynal (ES)", 2 * t + 2),
        ("chandra_toueg", "Chandra-Toueg (ES)", 3 * t + 3),
    ]
    result = _batch(
        (name, workload, recipe, range(n))
        for name, _label, _paper in algorithms
        for workload, recipe in workloads
    )
    rows = []
    for name, label, paper in algorithms:
        worst, witness = result.worst_case(name)
        rows.append((label, worst, paper, witness))
    return (
        f"E5: the price of indulgence (n={n}, t={t})",
        ["algorithm", "worst sync round", "paper", "witness workload"],
        rows,
    )


def diamond_s_gap() -> Table:
    """E6: A_◇S (t+2) vs Hurfin–Raynal (2t+2) on coordinator killers."""
    systems = [(2 * t + 1, t) for t in (1, 2, 3, 4)]
    result = _batch(
        (algorithm, f"killer/t{t}",
         _recipe("killer", n, t, 2 * t + 6, rounds_per_cycle=2), range(n))
        for n, t in systems
        for algorithm in ("adiamond_s", "hurfin_raynal")
    )
    rows = []
    for n, t in systems:
        asd = result.find("adiamond_s", f"killer/t{t}")
        hr = result.find("hurfin_raynal", f"killer/t{t}")
        rows.append((n, t, asd.global_round, t + 2,
                     hr.global_round, 2 * t + 2))
    return (
        "E6: A_dS vs Hurfin-Raynal on coordinator-killer runs",
        ["n", "t", "A_dS", "paper t+2", "HR", "paper 2t+2"],
        rows,
    )


def failure_free_optimization() -> Table:
    """E7: the Figure-4 optimization decides at round 2 failure-free."""
    systems = [(3, 1), (5, 2), (7, 3), (9, 4)]

    def entries():
        for n, t in systems:
            ff = _recipe("failure_free", n, t, t + 6)
            crashy = _recipe("cascade", n, t, t + 6)
            yield ("att2", f"ff/n{n}", ff, range(n))
            yield ("att2_optimized", f"ff/n{n}", ff, range(n))
            yield ("att2_optimized", f"cascade/n{n}", crashy, range(n))

    result = _batch(entries())
    rows = []
    for n, t in systems:
        plain = result.find("att2", f"ff/n{n}")
        opt = result.find("att2_optimized", f"ff/n{n}")
        opt_crashy = result.find("att2_optimized", f"cascade/n{n}")
        rows.append((n, t, plain.global_round, opt.global_round,
                     opt_crashy.global_round))
    return (
        "E7: Figure-4 optimization — round 2 in failure-free runs",
        ["n", "t", "plain A_t+2 (ff)", "optimized (ff)",
         "optimized (cascade)"],
        rows,
    )


def eventual_fast_decision() -> Table:
    """E8: A_{f+2} vs AMR on sync-after-k runs with f late crashes."""
    n, t = 7, 2
    points = [(k, f) for k in (0, 2, 4) for f in (0, 1, 2)]
    result = _batch(
        (algorithm, f"k{k}f{f}",
         _recipe("async_prefix", n, t, k + f + 10, k=k, crashes_after=f),
         range(n))
        for k, f in points
        for algorithm in ("afp2", "amr_leader")
    )
    rows = []
    for k, f in points:
        afp2 = result.find("afp2", f"k{k}f{f}")
        amr = result.find("amr_leader", f"k{k}f{f}")
        rows.append((k, f, afp2.global_round, k + f + 2,
                     amr.global_round, k + 2 * f + 2))
    return (
        f"E8: eventual fast decision (n={n}, t={t})",
        ["k", "f", "A_f+2", "bound k+f+2", "AMR", "bound k+2f+2"],
        rows,
    )


def split_brain() -> Table:
    """E10: ES-legal partitions break agreement when t >= n/2."""
    rows = []
    for n, t in ((4, 2), (6, 3), (8, 4)):
        schedule = enforce_es(
            partitioned_prefix(
                n, t, 2 * t + 6, rounds=2 * t + 4, heal_at=2 * t + 6
            ),
            require_sync_by=None,
        )
        half = n // 2
        factory = ATt2.factory(allow_unsafe_resilience=True)
        trace = run_algorithm(
            factory, schedule, [0] * half + [1] * (n - half)
        )
        rows.append((
            n, t, str(sorted(trace.decided_values())),
            trace.global_decision_round(),
            "VIOLATED" if check_agreement(trace) else "ok",
        ))
    return (
        "E10: split-brain under t >= n/2 (ES-legal partition)",
        ["n", "t", "decisions", "round", "agreement"],
        rows,
    )


def detector_simulation() -> Table:
    """E11: the simulated detector is P on SCS runs, ◇P on ES runs.

    Runs whose last crash falls at or past the horizon are skipped:
    completeness is unobservable in the window.
    """
    scs_ok = scs_total = 0
    diamond_p = diamond_s = accurate = es_total = 0
    for seed in range(60):
        scs = random_scs_schedule(6, 2, seed, horizon=9)
        if _last_crash(scs) < scs.horizon:
            scs_total += 1
            scs_ok += Perfect.satisfied_by(simulate_from_schedule(scs))
        es = random_es_schedule(6, 2, seed, horizon=16, sync_by=7)
        last = _last_crash(es)
        if last >= es.horizon:
            continue
        es_total += 1
        history = simulate_from_schedule(es)
        diamond_p += EventuallyPerfect.satisfied_by(history)
        diamond_s += EventuallyStrong.satisfied_by(history)
        accuracy_round = history.eventual_strong_accuracy_round()
        settle = max(es.sync_from(), last + 1)
        accurate += accuracy_round is not None and accuracy_round <= settle
    return (
        "E11: the Section-4 failure-detector simulation",
        ["property", "satisfied", "checked"],
        [
            ("SCS runs satisfying P", scs_ok, scs_total),
            ("ES runs satisfying ◇P", diamond_p, es_total),
            ("ES runs satisfying ◇S", diamond_s, es_total),
            ("ES accuracy by settle round", accurate, es_total),
        ],
    )


def all_experiments() -> list[Table]:
    """Every table-shaped experiment, in presentation order."""
    return [
        price_of_indulgence(),
        diamond_s_gap(),
        failure_free_optimization(),
        eventual_fast_decision(),
        split_brain(),
        detector_simulation(),
    ]
