"""Engine determinism: the execution backend must not be observable.

The acceptance criterion lives here: the stock ``sweep`` grid (>= 100
cases over >= 3 algorithms) executed on a 4-worker process pool yields
records identical (including canonical JSON bytes) to serial execution
of the same grid, and re-expanding a grid with the
same seed replays identically under :mod:`repro.sim.replay`.  Shard
determinism across backends lives in ``test_shards.py``.
"""

from repro.algorithms.registry import get_factory
from repro.engine import (
    GridSpec,
    ProcessExecutor,
    SerialExecutor,
    default_sweep_grid,
    expand_grid,
    family,
    run_batch,
    run_cases,
)
from repro.sim.kernel import run_algorithm
from repro.sim.replay import replay, schedule_from_data, schedule_to_data


def _small_grid(seed=5):
    return GridSpec(
        n=5,
        t=2,
        algorithms=("att2", "floodset", "hurfin_raynal"),
        families=(
            family("es", "random_es", count=6, horizon=12),
            family("scs", "random_scs", count=4, horizon=8),
            family("cascade", "cascade", horizon=12),
        ),
        seed=seed,
        proposal_mode="random",
    )


class TestWorkerCountInvariance:
    def test_small_grid_parallel_matches_serial(self):
        grid = _small_grid()
        serial = run_batch(grid, executor=SerialExecutor())
        parallel = run_batch(grid, executor=ProcessExecutor(4))
        assert serial.records == parallel.records
        assert serial.to_json() == parallel.to_json()

    def test_acceptance_grid_parallel_matches_serial(self):
        """The ISSUE's acceptance check: >= 100 cases, >= 3 algorithms."""
        grid = default_sweep_grid()
        cases = expand_grid(grid)
        assert len(cases) >= 100
        assert len({case.algorithm for case in cases}) >= 3
        serial = run_batch(cases, executor=SerialExecutor())
        parallel = run_batch(cases, executor=ProcessExecutor(4))
        assert serial.records == parallel.records
        assert serial.to_json() == parallel.to_json()

    def test_streaming_sees_same_records_in_any_order(self, list_sink):
        grid = _small_grid()
        run_cases(expand_grid(grid), executor=ProcessExecutor(4),
                  sink=list_sink)
        serial = run_batch(grid, executor=SerialExecutor())
        streamed = sorted(list_sink.records, key=lambda r: r.case_index)
        assert streamed == list(serial.records)


class TestSeedReplay:
    def test_reexpanded_grid_replays_identically(self):
        grid = _small_grid(seed=9)
        first = expand_grid(grid)
        second = expand_grid(grid)
        assert first == second
        for case in first[:8]:
            factory = get_factory(case.algorithm)
            trace = run_algorithm(
                factory, case.schedule, list(case.proposals)
            )
            # replay() raises SimulationError on any divergence.
            fresh = replay(trace, factory)
            assert fresh.decisions == trace.decisions

    def test_grid_schedules_survive_serialization(self):
        # Schedules exported from a batch can be re-imported bit-for-bit,
        # so archived sweeps can be re-executed elsewhere.
        for case in expand_grid(_small_grid())[:6]:
            data = schedule_to_data(case.schedule)
            assert schedule_from_data(data) == case.schedule
