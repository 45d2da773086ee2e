"""Tests for the batch runner and result aggregation."""

import json
import os

import pytest

from repro import ATt2, Schedule
from repro.analysis.sweep import SweepRecord
from repro.engine import (
    BatchResult,
    Case,
    GridError,
    GridSpec,
    ProcessExecutor,
    family,
    resolve_workers,
    run_batch,
    run_cases,
)
from repro.engine.grids import ScheduleRecipe


def _case(index, algorithm="att2", workload="ff", n=3, t=1, horizon=8):
    return Case(
        index=index,
        algorithm=algorithm,
        workload=workload,
        recipe=ScheduleRecipe(
            family("ff", "failure_free", horizon=horizon), n, t, 0
        ),
        proposals=tuple(range(n)),
    )


class TestRunCases:
    def test_empty(self):
        assert run_cases([]) == []

    def test_serial_records_in_index_order(self):
        records = run_cases([_case(1), _case(0, algorithm="floodset")])
        assert [r.algorithm for r in records] == ["floodset", "att2"]
        assert records[1].global_round == 3  # t + 2
        assert records[0].global_round == 2  # t + 1

    def test_sink_receives_every_case_and_nothing_is_held(self, list_sink):
        cases = [_case(i) for i in range(5)]
        assert run_cases(cases, sink=list_sink) == []
        assert sorted(r.case_index for r in list_sink.records) == list(
            range(5)
        )
        assert sorted(
            list_sink.records, key=lambda r: r.case_index
        ) == run_cases(cases)

    def test_case_names_its_algorithm_and_carries_no_factory(self):
        from dataclasses import fields

        assert "factory" not in {field.name for field in fields(Case)}
        with pytest.raises(KeyError, match="unknown algorithm"):
            run_cases([_case(0, algorithm="not_in_registry")])

    def test_record_carries_horizon(self):
        (record,) = run_cases([_case(0, horizon=9)])
        assert record.horizon == 9

    def test_record_carries_case_index(self):
        records = run_cases([_case(3), _case(7)])
        assert [r.case_index for r in records] == [3, 7]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(GridError, match="duplicate case indices"):
            run_cases([_case(0), _case(1), _case(0)])

    def test_accepts_one_shot_iterators(self):
        # run_cases iterates twice (validation, then partition/execute);
        # a generator argument must not silently yield an empty result.
        records = run_cases(_case(i) for i in range(3))
        assert len(records) == 3


class TestResolveWorkers:
    def test_auto_sizes_and_clamps(self):
        assert resolve_workers(None, 100) >= 1
        assert resolve_workers(0, 100) >= 1
        assert resolve_workers(16, 3) == 3
        assert resolve_workers(4, 0) == 1
        assert resolve_workers(1, 100) == 1

    def test_auto_size_follows_the_affinity_mask(self, monkeypatch):
        # A 64-CPU machine pinned to one CPU must get one worker, not 8.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {3}, raising=False
        )
        assert resolve_workers(None, 100) == 1
        assert resolve_workers(0, 100) == 1
        assert resolve_workers(4, 100) == 4  # explicit counts stand

    def test_auto_size_keeps_the_cap_of_eight(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(64)),
            raising=False,
        )
        assert resolve_workers(None, 100) == 8

    def test_auto_size_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_workers(None, 100) == 3


class TestRunBatch:
    def test_accepts_grid_or_cases(self):
        grid = GridSpec(
            n=3, t=1, algorithms=("att2", "floodset"),
            families=(family("ff", "failure_free", horizon=8),
                      family("es", "random_es", count=2, horizon=10)),
        )
        from repro.engine import expand_grid

        by_grid = run_batch(grid)
        by_cases = run_batch(expand_grid(grid))
        assert by_grid == by_cases
        assert by_grid.case_count == 6

    def test_parallel_pool_used_for_plain_cases(self):
        result = run_batch([_case(i) for i in range(8)],
                           executor=ProcessExecutor(2))
        assert result.case_count == 8
        assert all(r.global_round == 3 for r in result.records)


class TestBatchResult:
    def _result(self):
        return run_batch([
            _case(0, workload="ff8"),
            _case(1, workload="ff6", horizon=6),
            _case(2, algorithm="floodset", workload="ff8"),
        ])

    def test_algorithms_in_first_appearance_order(self):
        assert self._result().algorithms == ("att2", "floodset")

    def test_find(self):
        result = self._result()
        assert result.find("floodset", "ff8").global_round == 2
        with pytest.raises(KeyError):
            result.find("att2", "nope")

    def test_summary_counts(self):
        summary = self._result().summary("att2")
        assert summary.cases == 2
        assert summary.decided == 2
        assert summary.violations == 0
        assert summary.worst_round == 3
        assert summary.messages > 0

    def test_worst_case_counts_undecided_as_horizon_plus_one(self):
        decided = SweepRecord(
            algorithm="a", workload="w1", n=3, t=1, crashes=0, sync_from=1,
            global_round=3, first_round=3, deciders=3,
            agreement_ok=True, validity_ok=True, messages=9, horizon=8,
        )
        undecided = SweepRecord(
            algorithm="a", workload="w2", n=3, t=1, crashes=0, sync_from=1,
            global_round=None, first_round=None, deciders=0,
            agreement_ok=True, validity_ok=True, messages=9, horizon=8,
        )
        result = BatchResult(records=(decided, undecided))
        assert result.worst_case("a") == (9, "w2")

    def test_worst_case_tie_keeps_first_witness(self):
        result = self._result()
        worst, witness = result.worst_case("att2")
        assert (worst, witness) == (3, "ff8")

    def test_violations_empty_on_safe_batch(self):
        assert self._result().violations() == ()

    def test_json_roundtrip(self):
        result = self._result()
        data = json.loads(result.to_json())
        rebuilt = BatchResult.from_data(data)
        assert rebuilt == result
        assert rebuilt.to_json() == result.to_json()

    def test_save(self, tmp_path):
        path = tmp_path / "batch.json"
        result = self._result()
        result.save(str(path))
        assert BatchResult.from_data(json.loads(path.read_text())) == result

    def test_from_data_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            BatchResult.from_data({"version": 99, "records": []})

    def test_from_data_rejects_pre_case_index_archives(self):
        # Version 1 records lack case_index; the guard must fail cleanly
        # rather than half-loading an old archive.
        with pytest.raises(ValueError, match="version"):
            BatchResult.from_data({"version": 1, "records": []})

    def test_merge(self):
        a = run_batch([_case(0, workload="w0"), _case(1, workload="w1")])
        b = run_batch([_case(2, workload="w2")])
        merged = BatchResult.merge([b, a])
        assert merged.case_count == a.case_count + b.case_count
        assert merged.records[:2] == a.records

    def test_merge_rejects_overlapping_indexed_shards(self):
        # Loading the same shard twice (or overlapping slices) must fail
        # loudly: silent concatenation corrupts every aggregate.
        a = self._result()
        with pytest.raises(ValueError, match="shards overlap"):
            BatchResult.merge([a, a])

    def test_merge_shuffled_shards_is_canonical(self):
        # The determinism contract: per-shard results recombine into the
        # same stream regardless of shard arrival order, because records
        # carry their originating case index.
        cases = [_case(i, workload=f"w{i}") for i in range(6)]
        full = run_batch(cases)
        shards = [run_batch([case]) for case in cases]
        for order in ((4, 0, 5, 2, 1, 3), (5, 4, 3, 2, 1, 0)):
            merged = BatchResult.merge(shards[i] for i in order)
            assert merged == full
            assert merged.to_json() == full.to_json()

    def test_merge_without_indices_keeps_concatenation_order(self):
        def record(workload):
            return SweepRecord(
                algorithm="a", workload=workload, n=3, t=1, crashes=0,
                sync_from=1, global_round=3, first_round=3, deciders=3,
                agreement_ok=True, validity_ok=True, messages=9, horizon=8,
            )

        a = BatchResult(records=(record("w1"),))
        b = BatchResult(records=(record("w0"),))
        merged = BatchResult.merge([a, b])
        assert [r.workload for r in merged.records] == ["w1", "w0"]


class TestCase:
    def test_a_case_is_its_fields_and_builds_its_schedule_on_read(
        self, built_schedules
    ):
        from dataclasses import replace

        case, twin = _case(0), _case(0)
        assert case == twin and hash(case) == hash(twin)
        assert case != replace(case, index=1)
        assert repr(case).startswith(
            "Case(index=0, algorithm='att2', workload='ff', "
            "recipe=ScheduleRecipe('ff', n=3, t=1, seed=0)"
        )
        assert built_schedules == []
        assert case.schedule == Schedule.failure_free(3, 1, 8)
        assert case.schedule is case.schedule  # the recipe builds once
        assert len(built_schedules) == 1


class TestCorrectUndecided:
    def test_zero_when_every_correct_process_decides(self):
        (record,) = run_cases([_case(0)])
        assert record.correct_undecided == 0

    def test_counts_correct_processes_only(self):
        # Horizon 1 is far too short for att2 (needs t + 2 = 3 rounds),
        # so all three correct processes stay undecided.
        (record,) = run_cases([_case(0, horizon=1)])
        assert record.global_round is None
        assert record.correct_undecided == 3


class TestTraceModes:
    """The engine runs every case lean; records never depend on it."""

    def _grid(self):
        return GridSpec(
            n=5, t=2, algorithms=("att2", "hurfin_raynal"),
            families=(
                family("es", "random_es", count=4, horizon=12),
                family("killer2", "killer", horizon=12,
                       rounds_per_cycle=2),
            ),
            seed=3, proposal_mode="random",
        )

    def test_run_case_returns_a_lean_trace(self):
        from repro.analysis.sweep import case_record, run_case
        from repro.sim.kernel import run_algorithm

        schedule = Schedule.failure_free(5, 2, 8)
        record, trace = run_case(
            "att2", ATt2.factory(), "ff", schedule, [3, 1, 4, 1, 5]
        )
        assert trace.rounds is None
        full = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        assert case_record("att2", "ff", full) == record

    def test_trace_mode_is_not_an_engine_argument(self):
        from dataclasses import fields

        assert "trace" not in {field.name for field in fields(Case)}
        for runner in (run_cases, run_batch):
            with pytest.raises(TypeError, match="trace"):
                runner([_case(0)], trace="full")

    def test_process_pool_runs_lean_cases(self):
        # Lean mode must survive pickling to workers (the compiled-plan
        # and digest memos are stripped from schedule pickles).
        grid = self._grid()
        serial = run_batch(grid)
        pooled = run_batch(grid, executor=ProcessExecutor(workers=2))
        assert serial == pooled

    def test_stock_grid_records_match_the_prerefactor_pipeline(self):
        """Acceptance: engine output (compiled kernel, lean traces) equals
        the pre-refactor pipeline (reference kernel, full traces, uncached
        synchrony scan) on a stock grid, record for record."""
        from dataclasses import replace

        from repro.algorithms.base import make_automata
        from repro.algorithms.registry import get_factory
        from repro.analysis.metrics import check_agreement, check_validity
        from repro.engine import default_sweep_grid, expand_grid
        from kernel_oracle import execute_reference, sync_from_by_scan

        grid = default_sweep_grid(5, 2, cases_per_family=2, seed=11)
        engine_records = run_batch(grid).records

        def reference_record(case):
            schedule = case.schedule
            trace = execute_reference(
                make_automata(
                    get_factory(case.algorithm), schedule.n, schedule.t,
                    list(case.proposals),
                ),
                schedule,
            )
            return replace(
                SweepRecord(
                    algorithm=case.algorithm,
                    workload=case.workload,
                    n=schedule.n,
                    t=schedule.t,
                    crashes=len(schedule.crashes),
                    sync_from=sync_from_by_scan(schedule),
                    global_round=trace.global_decision_round(),
                    first_round=trace.first_decision_round(),
                    deciders=len(trace.decisions),
                    agreement_ok=not check_agreement(trace),
                    validity_ok=not check_validity(trace),
                    messages=trace.message_count(),
                    horizon=schedule.horizon,
                    correct_undecided=sum(
                        1 for pid in schedule.correct
                        if pid not in trace.decisions
                    ),
                ),
                case_index=case.index,
            )

        expected = tuple(
            reference_record(case) for case in expand_grid(grid)
        )
        assert engine_records == expected
