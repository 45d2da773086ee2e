"""The headline experiment: how many rounds does indulgence cost?

Usage::

    python examples/price_of_indulgence.py

Reproduces the paper's central comparison on worst-case synchronous runs:

* FloodSet, designed for the synchronous model SCS, decides in t + 1
  rounds — but is *not* indulgent: one false suspicion breaks it.
* A_{t+2}, the paper's algorithm for the eventually synchronous model ES,
  decides in t + 2 rounds in every synchronous run — and Proposition 1
  shows no indulgent algorithm can do better.  The price is one round.
* The previously best indulgent algorithm (Hurfin–Raynal style) pays
  2t + 2.
"""

from repro import FloodSetWS, Schedule, ScheduleBuilder, run_algorithm
from repro.analysis.metrics import check_agreement
from repro.analysis.tables import format_table
from repro.engine import cases_from, run_batch
from repro.workloads import coordinator_killer, serial_cascade, value_hiding_chain


def worst_case_table(n, t):
    workloads = [
        ("failure_free", Schedule.failure_free(n, t, 24)),
        ("cascade", serial_cascade(n, t, 24)),
        ("hiding_chain", value_hiding_chain(n, t, 24)),
        ("killer2", coordinator_killer(n, t, 24, rounds_per_cycle=2)),
        ("killer3", coordinator_killer(n, t, 24, rounds_per_cycle=3)),
    ]
    algorithms = (
        ("FloodSet (SCS, not indulgent)", "floodset", f"t+1 = {t + 1}"),
        ("A_t+2 (ES, this paper)", "att2", f"t+2 = {t + 2}"),
        ("Hurfin-Raynal (ES)", "hurfin_raynal", f"2t+2 = {2 * t + 2}"),
        ("Chandra-Toueg (ES)", "chandra_toueg", f"3t+3 = {3 * t + 3}"),
    )
    result = run_batch(cases_from(
        (algorithm, workload, schedule, range(n))
        for _title, algorithm, _formula in algorithms
        for workload, schedule in workloads
    ))
    rows = []
    for title, algorithm, formula in algorithms:
        worst, witness = result.worst_case(algorithm)
        rows.append((title, worst, formula, witness))
    return rows


def why_not_floodset(n=3, t=1):
    """FloodSetWS disagrees under a single burst of false suspicions."""
    builder = ScheduleBuilder(n, t, 6)
    for k in (1, 2):
        builder.delay(0, 1, k, 3)
        builder.delay(0, 2, k, 3)
    schedule = builder.build()
    trace = run_algorithm(FloodSetWS, schedule, [0, 1, 1])
    return trace, check_agreement(trace)


def main():
    n, t = 5, 2
    print(format_table(
        ["algorithm", "worst synchronous round", "paper", "witness"],
        worst_case_table(n, t),
        title=f"Worst-case global decision round over synchronous runs "
              f"(n={n}, t={t})",
    ))

    print("\nWhy not just run FloodSet in ES?  Because it is not indulgent:")
    trace, violations = why_not_floodset()
    print(f"  under false suspicions it decides {dict(trace.decisions)}")
    for violation in violations:
        print(f"  -> {violation}")
    print("  A_t+2 runs the same flood, plus one round that detects the")
    print("  false suspicion (|Halt| > t) and falls back safely.")


if __name__ == "__main__":
    main()
