"""E6 — Figure 3 / Section 5.1: A_◇S versus the Hurfin–Raynal baseline.

On coordinator-killing synchronous runs, A_◇S reaches a global decision at
round t + 2 for every t, while the Hurfin–Raynal-style algorithm — the
most efficient previously-known indulgent consensus — needs 2t + 2.  The
gap grows linearly in t, as the paper reports.  The head-to-head table is
:func:`repro.analysis.experiments.diamond_s_gap`; this bench times it and
asserts each measured round against its paper column.
"""

import pytest

from repro.analysis.experiments import diamond_s_gap, render
from repro.detectors import EventuallyStrong, simulate_from_schedule

from conftest import emit


@pytest.mark.smoke
def test_adiamond_s_vs_hurfin_raynal(benchmark):
    table = benchmark(diamond_s_gap)
    emit(render(table))
    _title, _headers, rows = table
    for _n, t, asd_round, asd_paper, hr_round, hr_paper in rows:
        assert asd_round == asd_paper, (t, asd_round)
        assert hr_round == hr_paper, (t, hr_round)


def test_simulated_detector_is_diamond_s(benchmark):
    """The transposition's premise: ES simulates a ◇S-compatible detector."""
    from repro.sim.random_schedules import random_es_schedule

    def check(seeds=range(20)):
        satisfied = 0
        for seed in seeds:
            schedule = random_es_schedule(5, 2, seed, horizon=14, sync_by=6)
            last_crash = max(
                (s.round for s in schedule.crashes.values()), default=0
            )
            if last_crash >= schedule.horizon:
                continue  # completeness unobservable in the window
            history = simulate_from_schedule(schedule)
            assert EventuallyStrong.satisfied_by(history), seed
            satisfied += 1
        return satisfied

    satisfied = benchmark.pedantic(check, rounds=1, iterations=1)
    assert satisfied > 0
