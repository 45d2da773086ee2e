"""E7 — Figure 4 / Section 5.2: the failure-free optimization.

In every failure-free synchronous run, the optimized A_{t+2} reaches a
global decision at round 2 — matching the two-round lower bound for
well-behaved runs (Keidar & Rajsbaum) — while remaining t + 2 when
failures or suspicions appear.

The per-system comparison table is
:func:`repro.analysis.experiments.failure_free_optimization`; the
randomized serial-run safety sample runs as an engine batch drawing its
schedules from the seeded ``random_serial`` family.
"""

import pytest

from repro.analysis.experiments import failure_free_optimization, render
from repro.engine import Case, family, run_batch
from repro.engine.grids import expand_family

from conftest import emit


@pytest.mark.smoke
def test_failure_free_optimization(benchmark):
    table = benchmark(failure_free_optimization)
    emit(render(table))
    _title, _headers, rows = table
    for _n, t, plain_ff, opt_ff, opt_crashy in rows:
        assert plain_ff == t + 2
        assert opt_ff == 2  # the well-behaved lower bound, met exactly
        assert opt_crashy == t + 2  # degradation is graceful


def test_optimization_never_violates_safety(benchmark):
    """Sampled serial runs: the fast path must never break agreement."""

    def sampled(samples=150):
        instances = expand_family(
            family("serial", "random_serial", count=samples, horizon=10),
            5, 2, master_seed=0,
        )
        result = run_batch([
            Case(i, "att2_optimized", label, recipe, (3, 1, 4, 1, 5))
            for i, (label, recipe) in enumerate(instances)
        ])
        return [
            record.workload
            for record in result.records
            if not (record.agreement_ok and record.validity_ok)
            or record.correct_undecided
        ]

    bad = benchmark.pedantic(sampled, rounds=1, iterations=1)
    assert not bad
