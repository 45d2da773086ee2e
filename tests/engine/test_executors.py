"""Tests for the pluggable execution backends (repro.engine.executors)."""

import multiprocessing
import time

import pytest

from repro import ATt2, Schedule
from repro.engine import (
    Case,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
    run_batch,
    run_cases,
)

BACKEND_PARAMS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(ProcessExecutor(workers=3), id="processes"),
    pytest.param(ThreadExecutor(workers=3), id="threads"),
]


def _case(index, algorithm="att2", workload="ff", n=3, t=1, horizon=8,
          factory=None):
    return Case(
        index=index,
        algorithm=algorithm,
        workload=workload,
        schedule=Schedule.failure_free(n, t, horizon),
        proposals=tuple(range(n)),
        factory=factory,
    )


class TestMapCasesProtocol:
    @pytest.mark.parametrize("executor", BACKEND_PARAMS)
    def test_yields_index_record_pairs_for_every_case(self, executor):
        cases = [_case(i, horizon=8 + i) for i in range(6)]
        pairs = list(executor.map_cases(cases))
        assert sorted(index for index, _record in pairs) == list(range(6))
        for index, record in pairs:
            assert record.case_index == index
            assert record.global_round == 3  # att2 decides at t + 2

    @pytest.mark.parametrize("executor", BACKEND_PARAMS)
    def test_empty_case_list(self, executor):
        assert list(executor.map_cases([])) == []

    @pytest.mark.parametrize("executor", BACKEND_PARAMS)
    def test_backends_agree_with_serial_reference(self, executor):
        cases = [
            _case(i, algorithm=name, workload=f"{name}/{h}", horizon=h)
            for i, (name, h) in enumerate(
                (name, h)
                for name in ("att2", "floodset", "hurfin_raynal")
                for h in (8, 9, 10)
            )
        ]
        reference = run_cases(cases, executor=SerialExecutor())
        assert run_cases(cases, executor=executor) == reference

    def test_executor_names(self):
        assert SerialExecutor().name == "serial"
        assert ProcessExecutor().name == "processes"
        assert ThreadExecutor().name == "threads"


def _assert_no_live_pool_children(timeout=10.0):
    """Wait (briefly) for every pool worker process to be reaped."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise AssertionError(
                f"pool processes still alive: "
                f"{multiprocessing.active_children()}"
            )
        time.sleep(0.05)


class TestScheduleGroups:
    """The pool ships one task per schedule (``execute_group``)."""

    def test_grouped_pool_output_equals_serial(self):
        from repro.sim.random_schedules import random_es_schedule

        schedules = [random_es_schedule(5, 2, seed) for seed in range(4)]
        cases = [
            Case(index=i, algorithm=name, workload=f"es/{j}",
                 schedule=schedules[j], proposals=(0, 1, 0, 1, 1))
            for i, (name, j) in enumerate(
                (name, j)
                for j in (0, 1, 2, 3, 1, 0)
                for name in ("att2", "hurfin_raynal")
            )
        ]
        pooled = sorted(ProcessExecutor(workers=2).map_cases(cases))
        assert pooled == sorted(SerialExecutor().map_cases(cases))
        assert run_cases(cases, executor=ProcessExecutor(workers=2)) == (
            run_cases(cases, executor=SerialExecutor())
        )

    def test_equal_schedules_share_a_group_in_first_appearance_order(self):
        from repro.engine.executors import group_by_schedule

        cases = [
            _case(0, horizon=9), _case(1, horizon=8), _case(2, horizon=9),
            _case(3, horizon=8), _case(4, horizon=10),
        ]
        assert cases[0].schedule is not cases[2].schedule
        groups = group_by_schedule(cases)
        assert [[case.index for case in group] for group in groups] == [
            [0, 2], [1, 3], [4],
        ]

    def test_execute_group_returns_execute_case_pairs(self):
        from repro.engine.executors import execute_case, execute_group

        cases = [_case(i, algorithm=name)
                 for i, name in enumerate(("att2", "floodset"))]
        assert execute_group(cases) == [execute_case(c) for c in cases]

    def test_one_schedule_runs_inline(self, monkeypatch):
        # A single group has nothing to spread over workers.
        from repro.engine import executors as executors_module

        def no_pool():
            raise AssertionError("one schedule must not start a pool")

        monkeypatch.setattr(executors_module, "_pool_context", no_pool)
        cases = [_case(i, algorithm=name)
                 for i, name in enumerate(("att2", "floodset", "att2"))]
        pairs = list(ProcessExecutor(workers=3).map_cases(cases))
        assert [index for index, _record in pairs] == [0, 1, 2]


class TestPoolTeardown:
    def test_abandoned_iterator_leaves_no_live_pool(self):
        # Regression: map_cases used to yield lazily from inside the
        # pool context, so a consumer that stopped iterating early
        # (exception mid-merge) left the pool alive until GC.  Results
        # are now drained inside the context, so by the time the first
        # pair is yielded the pool is already torn down.
        cases = [_case(i, horizon=8 + i) for i in range(6)]
        iterator = ProcessExecutor(workers=2).map_cases(cases)
        next(iterator)
        iterator.close()  # abandon mid-stream, as an exception would
        _assert_no_live_pool_children()

    def test_abandoned_iterator_without_close_leaks_nothing(self):
        cases = [_case(i, horizon=8 + i) for i in range(4)]
        iterator = ProcessExecutor(workers=2).map_cases(cases)
        next(iterator)
        del iterator
        _assert_no_live_pool_children()


class TestFactoryCases:
    def _factory_cases(self, count=3, start=0):
        # A lambda factory cannot cross a process boundary.
        return [
            _case(start + i, algorithm="custom",
                  factory=lambda pid, n, t, proposal:
                      ATt2.factory()(pid, n, t, proposal))
            for i in range(count)
        ]

    def test_process_backend_falls_back_to_serial(self):
        pairs = list(ProcessExecutor(workers=4).map_cases(
            self._factory_cases()
        ))
        assert [record.global_round for _i, record in pairs] == [3, 3, 3]

    def test_factory_cases_run_inline_beside_schedule_groups(
        self, monkeypatch
    ):
        from repro.engine import executors as executors_module

        grouped = []
        real_group = executors_module.group_by_schedule

        def recording_group(cases):
            groups = real_group(cases)
            grouped.extend(case.index for group in groups for case in group)
            return groups

        monkeypatch.setattr(
            executors_module, "group_by_schedule", recording_group
        )
        mixed = [_case(i, horizon=8 + i % 2) for i in range(4)]
        mixed += self._factory_cases(count=2, start=4)
        pairs = list(ProcessExecutor(workers=2).map_cases(mixed))
        assert sorted(grouped) == [0, 1, 2, 3]
        assert [index for index, _record in pairs[-2:]] == [4, 5]
        assert sorted(index for index, _record in pairs) == list(range(6))

    def test_mixed_batch_pools_picklable_cases(self, monkeypatch):
        # Regression: one factory case used to force the *entire* batch
        # onto the serial fallback.  The batch is now partitioned — the
        # picklable cases still go through the pool, the factory cases
        # run inline — and the re-sorted output is unchanged.
        from repro.engine import executors as executors_module

        pool_requested = []
        real_context = executors_module._pool_context

        def recording_context():
            pool_requested.append(True)
            return real_context()

        inline_indices = []
        real_serial = executors_module.SerialExecutor.map_cases

        def recording_serial(self, cases):
            inline_indices.extend(case.index for case in cases)
            return real_serial(self, cases)

        monkeypatch.setattr(
            executors_module, "_pool_context", recording_context
        )
        monkeypatch.setattr(
            executors_module.SerialExecutor, "map_cases", recording_serial
        )
        mixed = (
            [_case(i, horizon=8 + i) for i in range(4)]
            + self._factory_cases(count=2, start=4)
        )
        records = run_cases(mixed, executor=ProcessExecutor(workers=2))
        assert pool_requested, "picklable cases should still use the pool"
        assert sorted(inline_indices) == [4, 5]
        monkeypatch.undo()
        assert records == run_cases(mixed, executor=SerialExecutor())

    def test_thread_backend_runs_factories_in_process(self):
        # Threads share the interpreter, so no fallback is needed.
        pairs = list(ThreadExecutor(workers=2).map_cases(
            self._factory_cases()
        ))
        assert [record.global_round for _i, record in pairs] == [3, 3, 3]


class TestExecutorArgument:
    """``executor=`` is the only way to choose a backend."""

    def test_run_cases_rejects_workers_argument(self):
        with pytest.raises(TypeError, match="workers"):
            run_cases([_case(0)], workers=2)

    def test_run_batch_rejects_workers_argument(self):
        with pytest.raises(TypeError, match="workers"):
            run_batch([_case(0)], workers=2)

    def test_default_is_serial_and_silent(self, recwarn):
        records = run_cases([_case(i) for i in range(3)])
        assert records == run_cases(
            [_case(i) for i in range(3)], executor=SerialExecutor()
        )
        assert not recwarn.list


class TestResolveExecutor:
    def test_maps_backend_names(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert resolve_executor("processes", workers=4) == ProcessExecutor(4)
        assert resolve_executor("threads", workers=2) == ThreadExecutor(2)

    def test_serial_accepts_one_worker(self):
        assert isinstance(
            resolve_executor("serial", workers=1), SerialExecutor
        )

    def test_serial_rejects_parallel_workers(self):
        with pytest.raises(ExecutorError, match="serial backend"):
            resolve_executor("serial", workers=4)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutorError, match="unknown backend"):
            resolve_executor("carrier-pigeons")
