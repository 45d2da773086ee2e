"""Tests for the one definition of each table-shaped experiment."""

import dataclasses
import operator
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    all_experiments,
    detector_simulation,
    diamond_s_gap,
    eventual_fast_decision,
    failure_free_optimization,
    price_of_indulgence,
    split_brain,
)
from repro.engine import BatchResult
from repro.errors import ConsensusViolation, ModelViolation
from repro.model.schedule import ScheduleBuilder


class TestPriceOfIndulgence:
    def test_rows_match_paper(self):
        _title, _headers, rows = price_of_indulgence()
        by_name = {row[0]: row for row in rows}
        assert by_name["FloodSet (SCS)"][1] == 3
        assert by_name["A_t+2 (ES)"][1] == 4
        assert by_name["A_dS (ES)"][1] == 4
        assert by_name["Hurfin-Raynal (ES)"][1] == 6
        assert by_name["Chandra-Toueg (ES)"][1] == 9

    def test_measured_equals_paper_column(self):
        _title, _headers, rows = price_of_indulgence()
        for _name, worst, paper, _witness in rows:
            assert worst == paper


class TestDiamondSGap:
    def test_gap_grows_linearly(self):
        _title, _headers, rows = diamond_s_gap()
        assert [row[1] for row in rows] == [1, 2, 3, 4]
        for _n, t, asd, asd_paper, hr, hr_paper in rows:
            assert asd == asd_paper == t + 2
            assert hr == hr_paper == 2 * t + 2


class TestFailureFree:
    def test_optimized_always_two(self):
        _title, _headers, rows = failure_free_optimization()
        assert len(rows) == 4
        for _n, t, plain, optimized, crashy in rows:
            assert plain == t + 2
            assert optimized == 2
            assert crashy == t + 2


class TestEventualFast:
    def test_bounds_hold(self):
        _title, _headers, rows = eventual_fast_decision()
        for k, f, afp2, afp2_bound, amr, amr_bound in rows:
            assert afp2_bound == k + f + 2 and amr_bound == k + 2 * f + 2
            assert afp2 <= afp2_bound, (k, f)
            assert amr <= amr_bound, (k, f)
            assert afp2 <= amr


class TestSplitBrain:
    def test_always_violated(self):
        _title, _headers, rows = split_brain()
        assert [(n, t) for n, t, *_rest in rows] == [(4, 2), (6, 3), (8, 4)]
        for _n, t, decisions, round_, agreement in rows:
            assert decisions == "[0, 1]"
            assert round_ == t + 2
            assert agreement == "VIOLATED"

    def test_rejects_a_partition_that_is_not_es_legal(self, monkeypatch):
        def starved(n, t, horizon, **_kwargs):
            builder = ScheduleBuilder(n, t, horizon)
            for sender in range(1, n):
                builder.delay(sender, 0, 1, 3)
            return builder.build()

        monkeypatch.setattr(experiments, "partitioned_prefix", starved)
        with pytest.raises(ModelViolation, match="t-resilience"):
            split_brain()


class TestDetectorSimulation:
    def test_all_satisfied(self):
        _title, _headers, rows = detector_simulation()
        assert len(rows) == 4
        for _prop, satisfied, checked in rows:
            assert satisfied == checked > 0


# (experiment, measured column, bound column, relation the paper claims)
BOUND_COLUMNS = [
    (price_of_indulgence, 1, 2, operator.eq),
    (diamond_s_gap, 2, 3, operator.eq),
    (diamond_s_gap, 4, 5, operator.eq),
    (eventual_fast_decision, 2, 3, operator.le),
    (eventual_fast_decision, 4, 5, operator.le),
    (detector_simulation, 1, 2, operator.eq),
]


@pytest.mark.parametrize(
    "experiment, measured, bound, relation", BOUND_COLUMNS,
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_every_row_meets_its_bound_column(experiment, measured, bound,
                                          relation):
    _title, headers, rows = experiment()
    for row in rows:
        assert row[measured] is not None
        assert relation(row[measured], row[bound]), (
            headers[measured], headers[bound], row
        )


@pytest.mark.parametrize("experiment", [
    price_of_indulgence,
    diamond_s_gap,
    failure_free_optimization,
    eventual_fast_decision,
])
def test_grid_experiments_raise_on_disagreement(monkeypatch, experiment):
    real_run_batch = experiments.run_batch

    def disagreeing(cases):
        result = real_run_batch(cases)
        first, *rest = result.records
        broken = dataclasses.replace(first, agreement_ok=False)
        return BatchResult(records=(broken, *rest))

    monkeypatch.setattr(experiments, "run_batch", disagreeing)
    with pytest.raises(ConsensusViolation, match="consensus violated"):
        experiment()


class TestAllExperiments:
    def test_returns_every_table(self):
        tables = all_experiments()
        ids = [title.split(":", 1)[0] for title, _h, _r in tables]
        assert ids == ["E5", "E6", "E7", "E8", "E10", "E11"]
        for _title, headers, rows in tables:
            assert rows
            for row in rows:
                assert len(row) == len(headers)

    def test_cli_output_equals_the_golden_tables(self, capsys):
        # Every table byte for byte, E5's witness column and E8's
        # measured rounds included.  The fixture changes only with a
        # deliberate change to an experiment.
        from repro.cli import main

        golden = Path(__file__).with_name("experiments_golden.txt")
        assert main(["experiments"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
