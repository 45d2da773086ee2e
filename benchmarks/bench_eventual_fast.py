"""E8 — Figure 5 / Lemmas 15–16: eventual fast decision, A_{f+2} vs AMR.

Sweeps the asynchrony prefix k and the post-synchrony crash count f on
identical schedules: A_{f+2} globally decides by round k + f + 2 (Lemma
15); the two-step leader-based AMR needs up to k + 2f + 2 (footnote 10).
Absolute rounds depend on the workload's kindness — the asserted shape is
the paper's *guarantee* (upper bounds) plus the A_{f+2} <= AMR ordering.

The (k, f) × algorithm table is
:func:`repro.analysis.experiments.eventual_fast_decision`; the Lemma-16
randomized termination check runs as an engine batch drawing its
schedule family from the seeded grid layer.
"""

import pytest

from repro.analysis.experiments import eventual_fast_decision, render
from repro.engine import Case, family, run_batch
from repro.engine.grids import ScheduleRecipe, expand_family
from repro.sim.random_schedules import random_proposals

from conftest import emit

N, T = 7, 2


@pytest.mark.smoke
def test_eventual_fast_decision(benchmark):
    table = benchmark(eventual_fast_decision)
    emit(render(table))
    _title, _headers, rows = table
    for k, f, afp2_round, afp2_bound, amr_round, amr_bound in rows:
        assert afp2_round is not None and afp2_round <= afp2_bound, (k, f)
        assert amr_round is not None and amr_round <= amr_bound, (k, f)
        assert afp2_round <= amr_round, (k, f)


def test_crash_heavy_synchronous_tail(benchmark):
    """f = t crashes right after the prefix: the bound still holds."""

    def run():
        tails = [
            family(f"k{k}", "async_prefix", horizon=k + T + 10, k=k,
                   crashes_after=T)
            for k in (0, 3)
        ]
        result = run_batch([
            Case(i, "afp2", tail.name, ScheduleRecipe(tail, N, T, 0),
                 tuple(range(N)))
            for i, tail in enumerate(tails)
        ])
        return [
            (k, T, result.find("afp2", f"k{k}").global_round, k + T + 2)
            for k in (0, 3)
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for k, f, got, bound in rows:
        del f
        assert got is not None and got <= bound, (k, got, bound)


def test_termination_from_any_prefix(benchmark):
    """Lemma 16: every run decides once synchrony arrives (k + t + 2)."""

    def sampled(samples=60):
        instances = expand_family(
            family("es", "random_es", count=samples, horizon=22, sync_by=8),
            N, T, master_seed=0,
        )
        result = run_batch([
            Case(i, "afp2", label, recipe, tuple(random_proposals(N, i)))
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
