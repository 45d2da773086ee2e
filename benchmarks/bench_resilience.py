"""E10 — the resilience price: t < n/2 is necessary for indulgence.

Chandra & Toueg's majority requirement, reproduced as a split-brain run:
with t >= n/2 the ES constraints admit a partition into two halves of size
n − t, each half receives its quota of n − t messages per round, suspects
the other half, sees |Halt| = t (no false-suspicion evidence!), and
confidently decides its own minimum at round t + 2.  The same schedule is
impossible in SCS, where FloodSet tolerates up to n − 1 crashes.  The
split-brain table is :func:`repro.analysis.experiments.split_brain`.
"""

from repro import FloodSet, Schedule
from repro.analysis.experiments import render, split_brain
from repro.analysis.metrics import check_agreement
from repro.model.scs import check_scs
from repro.sim.kernel import run_algorithm
from repro.workloads import partitioned_prefix

from conftest import emit


def test_split_brain_disagreement(benchmark):
    table = benchmark(split_brain)
    emit(render(table))
    _title, _headers, rows = table
    for _n, t, decisions, _round, agreement in rows:
        assert decisions == "[0, 1]", (t, decisions)
        assert agreement == "VIOLATED"


def test_synchronous_model_has_no_majority_requirement(benchmark):
    """FloodSet in SCS survives t = n - 2 crashes (non-indulgent)."""

    def run():
        n, t = 5, 3
        schedule = Schedule.synchronous(
            n, t, t + 3,
            crashes={0: (1, [1]), 1: (2, [2]), 2: (3, [])},
        )
        return run_algorithm(FloodSet, schedule, [0, 4, 3, 2, 1])

    trace = benchmark(run)
    assert not check_agreement(trace)
    assert trace.global_decision_round() == 4  # t + 1

    # The split-brain schedule is rejected by the SCS validator.
    partition = partitioned_prefix(4, 2, 10, rounds=8, heal_at=10)
    assert check_scs(partition)
