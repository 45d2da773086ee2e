"""Tests for sweep records and worst-case search."""

from repro import ATt2, Schedule
from repro.analysis.sweep import SweepRecord, run_case
from repro.engine import cases_from, run_batch, run_cases
from repro.workloads import coordinator_killer, serial_cascade


class TestRunCase:
    def test_record_fields(self):
        schedule = Schedule.failure_free(3, 1, 8)
        record, trace = run_case(
            "att2", ATt2.factory(), "ff", schedule, [1, 2, 3]
        )
        assert record.algorithm == "att2"
        assert record.workload == "ff"
        assert record.global_round == 3
        assert record.deciders == 3
        assert record.agreement_ok and record.validity_ok
        assert record.messages == trace.message_count()

    def test_row_rendering(self):
        schedule = Schedule.failure_free(3, 1, 8)
        record, _ = run_case("a", ATt2.factory(), "w", schedule, [1, 2, 3])
        row = record.row()
        assert len(row) == len(SweepRecord.ROW_HEADERS)
        assert row[-1] == "yes"


class TestSweep:
    def test_grid(self):
        cases = cases_from([
            ("att2", "ff", Schedule.failure_free(3, 1, 8), [1, 2, 3]),
            ("floodset", "ff", Schedule.failure_free(3, 1, 8), [1, 2, 3]),
        ])
        records = run_cases(cases)
        assert [r.algorithm for r in records] == ["att2", "floodset"]
        assert records[0].global_round == 3  # t + 2
        assert records[1].global_round == 2  # t + 1


class TestWorstCase:
    def test_worst_case_finds_coordinator_killer(self):
        n, t = 5, 2
        schedules = [
            ("ff", Schedule.failure_free(n, t, 12)),
            ("cascade", serial_cascade(n, t, 12)),
            ("killer", coordinator_killer(n, t, 12, rounds_per_cycle=2)),
        ]
        cases = cases_from(
            ("hurfin_raynal", name, schedule, range(n))
            for name, schedule in schedules
        )
        worst, witness = run_batch(cases).worst_case("hurfin_raynal")
        assert worst == 2 * t + 2
        assert witness == "killer"

    def test_undecided_counts_as_horizon_plus_one(self):
        cases = cases_from(
            [("att2", "tiny", Schedule.failure_free(3, 1, 1), [1, 2, 3])]
        )
        worst, witness = run_batch(cases).worst_case("att2")
        assert worst == 2
        assert witness == "tiny"


class TestPackageAttribute:
    def test_package_attribute_is_the_sweep_module(self):
        # No package-level name shadows the module, so the cache's
        # runtime source hash resolves and covers analysis/sweep.py.
        import types

        import repro.analysis

        assert isinstance(repro.analysis.sweep, types.ModuleType)
        assert repro.analysis.sweep.SweepRecord is SweepRecord
        assert "sweep" not in repro.analysis.__all__
