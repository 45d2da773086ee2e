"""Tests for the pluggable execution backends (repro.engine.executors)."""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import Schedule
from repro.engine import (
    Case,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    execute_case,
    family,
    resolve_executor,
    run_batch,
    run_cases,
)
from repro.engine.grids import ScheduleRecipe

BACKEND_PARAMS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(ProcessExecutor(workers=3), id="processes"),
]


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

    @pytest.mark.parametrize("executor", BACKEND_PARAMS)
    def test_unknown_algorithm_fails_on_every_backend(self, executor):
        # Workers resolve the factory by name; an unregistered name is an
        # error on the pool too, never a silently dropped case.
        cases = [_case(0), _case(1, algorithm="not_in_registry", horizon=9)]
        with pytest.raises(KeyError, match="unknown algorithm"):
            list(executor.map_cases(cases))


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


@pytest.fixture
def forbid_digest(monkeypatch):
    """Make any call of ``Schedule.digest`` fail the test."""

    def digest(schedule):
        raise AssertionError("Schedule.digest was called")

    monkeypatch.setattr(Schedule, "digest", digest)


class TestScheduleGroups:
    """The pool ships one task per schedule (``execute_group``)."""

    def test_grouped_pool_output_equals_serial(self):
        es = family("es", "random_es")
        recipes = [ScheduleRecipe(es, 5, 2, seed) for seed in range(4)]
        cases = [
            Case(index=i, algorithm=name, workload=f"es/{j}",
                 recipe=recipes[j], proposals=(0, 1, 0, 1, 1))
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
        assert cases[0].recipe is not cases[2].recipe
        groups = group_by_schedule(cases)
        assert [[case.index for case in group] for group in groups] == [
            [0, 2], [1, 3], [4],
        ]

    def test_recipes_differing_only_in_params_split(self, built_schedules):
        # Two families of one kind, horizon and seed that differ in a
        # param build different schedules, so they never share a task.
        from repro.engine.executors import group_by_schedule

        def prefix(k):
            return ScheduleRecipe(
                family(f"k{k}", "async_prefix", k=k), 5, 2, 0
            )

        es = family("es", "random_es")
        recipes = [
            ScheduleRecipe(es, 5, 2, 5), prefix(1),
            ScheduleRecipe(es, 5, 2, 5), prefix(2), prefix(1),
        ]
        cases = [
            Case(index=i, algorithm="att2", workload=f"w{i}",
                 recipe=recipe, proposals=tuple(range(5)))
            for i, recipe in enumerate(recipes)
        ]
        groups = group_by_schedule(cases)
        assert [[case.index for case in group] for group in groups] == [
            [0, 2], [1, 4], [3],
        ]
        assert built_schedules == []

    def test_xlarge_pool_never_digests_the_es_schedule(
        self, forbid_digest
    ):
        # Grouping the n = 100 random-ES schedule, over 1,000 delays, for
        # the pool must not pay for its digest.
        from repro.engine.grids import expand_grid, profile_grids

        _label, grid = profile_grids("xlarge", seed=3)[0]
        cases = expand_grid(grid)
        es = next(
            case.schedule for case in cases if case.workload.startswith("es[")
        )
        assert len(es.delays) > 1000
        pooled = run_cases(cases, executor=ProcessExecutor(workers=2))
        assert pooled == run_cases(expand_grid(grid),
                                   executor=SerialExecutor())

    @pytest.mark.parametrize("run", ["pooled_cold", "pooled_warm",
                                     "experiments"])
    def test_no_engine_path_digests_a_schedule(
        self, forbid_digest, tmp_path, run
    ):
        # Every case names its schedule by a recipe: keying, grouping and
        # running one never reads Schedule.digest (pool workers are
        # forked, so they inherit the patch).
        from repro.analysis.experiments import all_experiments
        from repro.engine import ResultCache
        from repro.engine.grids import default_sweep_grid

        if run == "experiments":
            assert len(all_experiments()) == 6
            return
        grid = default_sweep_grid(5, 2, seed=4)
        executor = ProcessExecutor(workers=2)
        if run == "pooled_warm":
            run_batch(grid, executor=executor, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        result = run_batch(grid, executor=executor, cache=cache)
        assert (cache.hits, cache.misses) == (
            (grid.case_count, 0) if run == "pooled_warm"
            else (0, grid.case_count)
        )
        assert result == run_batch(grid, executor=SerialExecutor())

    def test_execute_group_returns_execute_case_pairs(self):
        from repro.engine.executors import execute_case, execute_group

        cases = [_case(i, algorithm=name)
                 for i, name in enumerate(("att2", "floodset"))]
        assert execute_group(cases) == [execute_case(c) for c in cases]

    def test_execute_group_on_an_unpickled_group_builds_once(
        self, built_schedules
    ):
        import pickle

        from repro.engine.executors import execute_group, group_by_schedule
        from repro.engine.grids import default_sweep_grid, expand_grid

        cases = expand_grid(default_sweep_grid(5, 2, seed=4))
        group = group_by_schedule(cases)[0]
        clone = pickle.loads(pickle.dumps(group))
        assert len(clone) == 5 and built_schedules == []
        pairs = execute_group(clone)
        assert len(built_schedules) == 1
        assert pairs == [execute_case(case) for case in group]

    @pytest.mark.parametrize("cached", [False, True])
    def test_pooled_batch_builds_nothing_in_the_parent(
        self, built_schedules, tmp_path, cached
    ):
        # Workers build the schedules; the parent only groups recipes and,
        # with a cold cache, keys them by recipe.
        from repro.engine import ResultCache
        from repro.engine.grids import default_sweep_grid

        grid = default_sweep_grid(5, 2, seed=4, cases_per_family=2)
        cache = ResultCache(tmp_path / "cache") if cached else None
        pooled = run_batch(grid, executor=ProcessExecutor(workers=2),
                           cache=cache)
        assert built_schedules == []
        assert pooled == run_batch(grid, executor=SerialExecutor())

    def test_recipe_cases_group_by_content_without_building(
        self, built_schedules
    ):
        from repro.engine.executors import group_by_schedule
        from repro.engine.grids import (
            GridSpec, ScheduleRecipe, expand_grid, family,
        )

        grid = GridSpec(
            n=5, t=2, algorithms=("att2", "floodset"),
            families=(family("es", "random_es", count=2),
                      family("ff", "failure_free")),
            seed=1,
        )
        cases = expand_grid(grid)
        twin = cases[1].recipe
        copy = ScheduleRecipe(twin.family, twin.n, twin.t, twin.seed)
        cases.append(Case(index=6, algorithm="att2", workload="copy",
                          recipe=copy, proposals=cases[1].proposals))
        groups = group_by_schedule(cases)
        assert [[case.index for case in group] for group in groups] == [
            [0, 3], [1, 4, 6], [2, 5],
        ]
        assert built_schedules == []

    def test_several_schedules_are_pooled_whole(self, monkeypatch):
        # No case of a multi-schedule batch runs inline in the driver:
        # every group becomes a pool task.
        from repro.engine import executors as executors_module

        cases = [_case(i, algorithm=name, horizon=8 + i // 2)
                 for i, name in enumerate(("att2", "floodset") * 3)]
        reference = list(SerialExecutor().map_cases(cases))

        def no_inline(self, cases):
            raise AssertionError("a multi-schedule batch ran inline")

        monkeypatch.setattr(
            executors_module.SerialExecutor, "map_cases", no_inline
        )
        pairs = list(ProcessExecutor(workers=2).map_cases(cases))
        assert sorted(pairs) == sorted(reference)

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


#: Runs ``repro ARGS`` in a fresh interpreter and prints whether the
#: sweep loaded ``multiprocessing``.
_POOL_IMPORT_CHILD = """\
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc, "multiprocessing" in sys.modules)
"""


class TestPoolImport:
    """Only a sweep that starts a pool imports ``multiprocessing``."""

    def _loads_multiprocessing(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_IMPORT_CHILD, "sweep",
             "--n", "5", "--t", "2", "--seed", "3", *args],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rc, loaded = proc.stdout.split()
        assert rc == "0"
        return loaded == "True"

    def test_warm_sweep_never_loads_it_and_a_cold_pooled_sweep_does(
        self, tmp_path
    ):
        cache = str(tmp_path / "cache")
        pooled = ("--backend", "processes", "--workers", "2", "--cache", cache)
        assert self._loads_multiprocessing(*pooled)
        assert not self._loads_multiprocessing(*pooled)  # every case hits


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

    def test_threads_is_not_a_backend(self):
        with pytest.raises(ExecutorError, match="known: serial, processes$"):
            resolve_executor("threads")
