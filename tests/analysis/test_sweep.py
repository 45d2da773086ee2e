"""Tests for sweep records and worst-case search."""

import dataclasses
import pickle

import pytest

from repro import ATt2, Schedule
from repro.analysis.sweep import SweepRecord, run_case
from repro.engine import Case, family, run_batch, run_cases
from repro.engine.grids import ScheduleRecipe


def _cases(entries):
    """Indexed cases from ``(algorithm, workload, family, n, t,
    proposals)`` entries."""
    return [
        Case(i, algorithm, workload, ScheduleRecipe(fam, n, t, 0),
             tuple(proposals))
        for i, (algorithm, workload, fam, n, t, proposals)
        in enumerate(entries)
    ]


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


class TestRecordLayout:
    """Records are slotted and keep their pickle and ``replace`` behavior."""

    RECORD = SweepRecord(
        algorithm="att2", workload="es[3]", n=5, t=2, crashes=1,
        sync_from=2, global_round=None, first_round=3, deciders=4,
        agreement_ok=True, validity_ok=False, messages=80, horizon=12,
        correct_undecided=1, case_index=7,
    )

    def test_has_no_instance_dict(self):
        assert not hasattr(self.RECORD, "__dict__")

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        clone = pickle.loads(pickle.dumps(self.RECORD, protocol=protocol))
        assert clone == self.RECORD
        assert clone.to_data() == self.RECORD.to_data()

    def test_replace_restamps_one_field(self):
        stamped = dataclasses.replace(self.RECORD, case_index=9)
        assert stamped.case_index == 9
        assert dataclasses.replace(stamped, case_index=7) == self.RECORD

    def test_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.RECORD.messages = 0


class TestSweep:
    def test_grid(self):
        ff = family("ff", "failure_free", horizon=8)
        cases = _cases([
            ("att2", "ff", ff, 3, 1, [1, 2, 3]),
            ("floodset", "ff", ff, 3, 1, [1, 2, 3]),
        ])
        records = run_cases(cases)
        assert [r.algorithm for r in records] == ["att2", "floodset"]
        assert records[0].global_round == 3  # t + 2
        assert records[1].global_round == 2  # t + 1


class TestWorstCase:
    def test_worst_case_finds_coordinator_killer(self):
        n, t = 5, 2
        families = [
            family("ff", "failure_free"),
            family("cascade", "cascade"),
            family("killer", "killer", rounds_per_cycle=2),
        ]
        cases = _cases(
            ("hurfin_raynal", fam.name, fam, n, t, range(n))
            for fam in families
        )
        worst, witness = run_batch(cases).worst_case("hurfin_raynal")
        assert worst == 2 * t + 2
        assert witness == "killer"

    def test_undecided_counts_as_horizon_plus_one(self):
        tiny = family("tiny", "failure_free", horizon=1)
        cases = _cases([("att2", "tiny", tiny, 3, 1, [1, 2, 3])])
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
