"""Orchestrator robustness: retry, reassign, heartbeat, partial failure.

The driver tests run against a scripted in-process
:class:`WorkerBackend` that injects exactly the failure the test is
about — a kill mid-shard (``ShardFailure``), a hang past the timeout, a
flaky-then-succeed worker, a permanently dead shard — and assert the
orchestration still converges on the byte-exact merged result (or
reports precisely what is missing).  One test at the bottom exercises
the real :class:`LocalWorkerBackend` end to end with subprocess workers
and an injected SIGKILL, pinning the acceptance contract: the merged
export is byte-identical to a serial whole-grid sweep even when a
worker dies mid-shard.
"""

import asyncio
import json

import pytest

from repro.analysis.sweep import SweepRecord
from repro.engine import (
    BatchResult,
    GridSpec,
    ShardSpec,
    expand_grid,
    family,
    run_batch,
)
from repro.engine.orchestrator import (
    LocalWorkerBackend,
    OrchestratorError,
    ShardFailure,
    WorkerSpec,
    local_workers,
    orchestrate,
)


def _record(index):
    """A minimal engine-shaped record with a distinct ``case_index``."""
    return SweepRecord(
        algorithm="att2",
        workload=f"w{index}",
        n=3,
        t=1,
        crashes=0,
        sync_from=1,
        global_round=2,
        first_round=2,
        deciders=3,
        agreement_ok=True,
        validity_ok=True,
        messages=10 + index,
        horizon=8,
        case_index=index,
    )


#: Cases per scripted "grid" — shard i of N owns indices {i, i+N, ...}.
TOTAL_CASES = 8


def _shard_result(shard):
    records = tuple(
        _record(index)
        for index in range(TOTAL_CASES)
        if index % shard.count == shard.index
    )
    return BatchResult(records=records)


def _full_result(shard_count):
    return BatchResult.merge(
        [_shard_result(ShardSpec(i, shard_count)) for i in range(shard_count)]
    )


class ScriptedBackend:
    """A :class:`WorkerBackend` whose failures are scripted per attempt.

    ``faults`` maps ``(shard_index, attempt)`` to a fault:

    * an exception instance — raised by that attempt;
    * the string ``"hang"`` — the attempt blocks until cancelled (the
      driver's timeout or heartbeat must kill it);
    * a ``BatchResult`` — returned instead of the shard's true result
      (for merge-conflict injection).

    ``dead_workers`` makes ``probe`` report those workers dead, feeding
    the heartbeat monitor.  Every call is logged in ``calls`` as
    ``(worker, shard_index, attempt)``.
    """

    def __init__(self, faults=None, dead_workers=()):
        self.faults = dict(faults or {})
        self.dead_workers = set(dead_workers)
        self.calls = []
        self.warmed = []
        self.warm_error = None

    async def run_shard(self, worker, shard, attempt):
        self.calls.append((worker.name, shard.index, attempt))
        fault = self.faults.get((shard.index, attempt))
        if isinstance(fault, Exception):
            raise fault
        if fault == "hang":
            await asyncio.Event().wait()  # cancellation is the only exit
        if isinstance(fault, BatchResult):
            return fault
        return _shard_result(shard)

    async def warm(self, worker):
        self.warmed.append(worker.name)
        if self.warm_error is not None:
            raise self.warm_error

    async def probe(self, worker):
        return worker.name not in self.dead_workers


def _run(backend, *, workers=2, shards=4, **kwargs):
    kwargs.setdefault("backoff", 0.01)
    kwargs.setdefault("heartbeat", None)
    return orchestrate(local_workers(workers), backend, shards, **kwargs)


class TestDriverHappyPath:
    def test_all_shards_complete_and_merge_byte_identically(self):
        backend = ScriptedBackend()
        report = _run(backend)
        assert report.complete
        assert len(report.completed) == 4
        assert report.total_attempts == 4
        assert report.result.to_json() == _full_result(4).to_json()

    def test_events_stream_launch_then_complete(self):
        events = []
        _run(ScriptedBackend(), on_event=events.append)
        kinds = [event.kind for event in events]
        assert kinds.count("launch") == 4
        assert kinds.count("complete") == 4
        assert all(kind in ("launch", "complete") for kind in kinds)
        # every event names its shard and worker for the progress stream
        assert all(
            event.shard is not None and event.worker for event in events
        )

    def test_outcomes_are_per_shard_and_sorted(self):
        report = _run(ScriptedBackend())
        assert [outcome.shard for outcome in report.outcomes] == [0, 1, 2, 3]
        assert all(outcome.attempts == 1 for outcome in report.outcomes)
        assert sum(outcome.cases for outcome in report.outcomes) == TOTAL_CASES


class TestDriverRetries:
    def test_flaky_shard_retries_then_succeeds(self):
        backend = ScriptedBackend(
            faults={(1, 1): ShardFailure("worker killed mid-shard")}
        )
        events = []
        report = _run(backend, on_event=events.append)
        assert report.complete
        assert report.result.to_json() == _full_result(4).to_json()
        outcome = report.outcomes[1]
        assert outcome.attempts == 2
        retries = [event for event in events if event.kind == "retry"]
        assert len(retries) == 1
        assert "killed mid-shard" in retries[0].detail

    def test_retry_reassigns_to_a_fresh_worker(self):
        backend = ScriptedBackend(faults={(0, 1): ShardFailure("boom")})
        report = _run(backend)
        outcome = report.outcomes[0]
        assert outcome.attempts == 2
        first, second = outcome.workers_tried
        assert first != second  # the failing worker is excluded on retry

    def test_single_worker_exclusion_resets_instead_of_deadlocking(self):
        # With one worker, excluding the failure would exclude everyone;
        # the driver resets the exclusion so the retry can still run.
        backend = ScriptedBackend(faults={(0, 1): ShardFailure("boom")})
        report = _run(backend, workers=1, shards=2)
        assert report.complete
        assert report.outcomes[0].workers_tried == ("local-0", "local-0")

    def test_permanent_failure_exhausts_attempts_and_reports(self):
        backend = ScriptedBackend(
            faults={
                (2, 1): ShardFailure("dead"),
                (2, 2): ShardFailure("dead"),
                (2, 3): ShardFailure("dead"),
            }
        )
        report = _run(backend, retries=2)
        assert not report.complete
        assert [outcome.shard for outcome in report.failed] == [2]
        failed = report.failed[0]
        assert failed.attempts == 3
        assert "dead" in failed.error
        # everything else still merged into a usable partial result
        merged_indices = sorted(
            record.case_index for record in report.result.records
        )
        assert merged_indices == [
            index for index in range(TOTAL_CASES) if index % 4 != 2
        ]
        text = report.describe()
        assert "FAILED after 3 attempts" in text
        assert "repro sweep --shard I/N" in text  # the recovery hint

    def test_zero_retries_means_exactly_one_attempt(self):
        backend = ScriptedBackend(faults={(3, 1): ShardFailure("once")})
        report = _run(backend, retries=0)
        assert not report.complete
        assert report.failed[0].attempts == 1
        assert len(backend.calls) == 4  # no shard ran twice

    def test_unexpected_backend_exception_is_bounded_like_a_failure(self):
        # A backend defect must not crash the orchestration: it consumes
        # attempts and lands in the report like any shard failure.
        backend = ScriptedBackend(
            faults={
                (1, 1): RuntimeError("backend bug"),
                (1, 2): RuntimeError("backend bug"),
            }
        )
        report = _run(backend, retries=1)
        assert not report.complete
        assert "RuntimeError: backend bug" in report.failed[0].error


class TestDriverTimeouts:
    def test_hang_past_timeout_is_retried(self):
        backend = ScriptedBackend(faults={(1, 1): "hang"})
        events = []
        report = _run(backend, timeout=0.2, on_event=events.append)
        assert report.complete
        assert report.result.to_json() == _full_result(4).to_json()
        retries = [event for event in events if event.kind == "retry"]
        assert len(retries) == 1
        assert "timed out" in retries[0].detail

    def test_hang_on_every_attempt_fails_the_shard(self):
        backend = ScriptedBackend(
            faults={(0, 1): "hang", (0, 2): "hang"}
        )
        report = _run(backend, retries=1, timeout=0.1)
        assert not report.complete
        assert "timed out" in report.failed[0].error
        assert report.failed[0].attempts == 2


class TestDriverHeartbeat:
    def test_dead_worker_probe_cancels_and_reassigns(self):
        # local-0's first attempt hangs forever and its probe reports
        # dead: the heartbeat monitor must cancel the attempt long
        # before the (absent) timeout would, and the shard must complete
        # on the surviving worker.
        class HangFirstBackend(ScriptedBackend):
            async def run_shard(self, worker, shard, attempt):
                if worker.name == "local-0" and not any(
                    name == "local-0" and a > 1 or name != "local-0"
                    for name, _shard, a in self.calls
                ):
                    self.calls.append((worker.name, shard.index, attempt))
                    self.dead_workers.add("local-0")
                    await asyncio.Event().wait()
                return await super().run_shard(worker, shard, attempt)

        backend = HangFirstBackend()
        events = []
        report = _run(
            backend,
            shards=2,
            timeout=None,
            heartbeat=0.05,
            on_event=events.append,
        )
        assert report.complete
        assert report.result.to_json() == _full_result(2).to_json()
        assert any(event.kind == "worker-dead" for event in events)
        retried = [
            event for event in events
            if event.kind == "retry" and "heartbeat lost" in event.detail
        ]
        assert len(retried) == 1


class TestDriverMergeSafety:
    def test_overlapping_export_is_rejected_and_retried(self):
        # A confused worker returning another shard's records must not
        # corrupt the merged result: the overlap check turns it into an
        # ordinary retryable failure.
        backend = ScriptedBackend(
            faults={(1, 1): _shard_result(ShardSpec(0, 4))}
        )
        events = []
        report = _run(backend, on_event=events.append)
        assert report.complete
        assert report.result.to_json() == _full_result(4).to_json()
        retries = [event for event in events if event.kind == "retry"]
        assert len(retries) == 1
        assert "merge rejected" in retries[0].detail


class TestDriverWarm:
    def test_warm_runs_once_per_worker_before_launch(self):
        backend = ScriptedBackend()
        events = []
        _run(backend, warm=True, on_event=events.append)
        assert sorted(backend.warmed) == ["local-0", "local-1"]
        warm_events = [event for event in events if event.kind == "warm"]
        assert len(warm_events) == 2
        # warming strictly precedes every launch
        first_launch = next(
            i for i, event in enumerate(events) if event.kind == "launch"
        )
        assert all(
            events.index(event) < first_launch for event in warm_events
        )

    def test_warm_failure_is_best_effort_not_fatal(self):
        backend = ScriptedBackend()
        backend.warm_error = OSError("no route to host")
        events = []
        report = _run(backend, warm=True, on_event=events.append)
        assert report.complete  # the sweep still ran
        warm_events = [event for event in events if event.kind == "warm"]
        assert any("continuing" in event.detail for event in warm_events)

    def test_ssh_warm_drops_a_stale_write_ahead_log_first(
        self, monkeypatch
    ):
        # A log left by a killed sweep on the worker belongs to the
        # database file the warm replaces; replayed onto the shipped
        # file it would corrupt it.
        from repro.engine.orchestrator import SSHWorkerBackend, backends

        commands = []

        async def record(argv, **_kwargs):
            commands.append(argv)
            return 0, b"", b""

        monkeypatch.setattr(backends, "_run_process", record)
        backend = SSHWorkerBackend(
            grid_args=(), workdir="work", cache=".sweep-cache"
        )
        far = WorkerSpec(name="far", host="far", repo="/srv/repro")
        asyncio.run(backend.warm(far))
        (argv,) = commands
        script = argv[-1]
        remote = "/srv/repro/.orchestrate-cache"
        assert script.index(
            f"rm -f {remote}/cache.sqlite3-wal {remote}/cache.sqlite3-shm"
        ) < script.index(f"tar -C {remote} -xf -")


class TestDriverValidation:
    def test_rejects_empty_worker_list(self):
        with pytest.raises(OrchestratorError, match="at least one worker"):
            orchestrate([], ScriptedBackend(), 2)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(OrchestratorError, match="shard count"):
            orchestrate(local_workers(1), ScriptedBackend(), 0)

    def test_rejects_negative_retries(self):
        with pytest.raises(OrchestratorError, match="retries"):
            orchestrate(local_workers(1), ScriptedBackend(), 1, retries=-1)

    def test_rejects_duplicate_worker_names(self):
        twins = [WorkerSpec(name="twin"), WorkerSpec(name="twin")]
        with pytest.raises(OrchestratorError, match="duplicate"):
            orchestrate(twins, ScriptedBackend(), 2)


def _tiny_grid(tmp_path):
    grid = GridSpec(
        n=3,
        t=1,
        algorithms=("att2", "floodset"),
        families=(
            family("es", "random_es", count=3, horizon=10),
            family("ff", "failure_free", horizon=10),
        ),
        seed=7,
        proposal_mode="random",
    )
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid.to_data()))
    return grid, path


class TestLocalBackendEndToEnd:
    """The acceptance contract, against real subprocess workers."""

    def test_chaos_killed_shard_retries_to_byte_identical_output(
        self, tmp_path
    ):
        grid, grid_path = _tiny_grid(tmp_path)
        serial = run_batch(expand_grid(grid))
        backend = LocalWorkerBackend(
            grid_args=("--grid", str(grid_path)),
            workdir=str(tmp_path / "work"),
            chaos_kill=frozenset({1}),
        )
        report = orchestrate(
            local_workers(2),
            backend,
            3,
            backoff=0.05,
            heartbeat=None,
        )
        assert report.complete
        assert report.outcomes[1].attempts >= 2  # the kill really fired
        assert report.result.to_json() == serial.to_json()

    def test_missing_grid_fails_every_attempt_with_stderr_tail(
        self, tmp_path
    ):
        backend = LocalWorkerBackend(
            grid_args=("--grid", str(tmp_path / "nope.json")),
            workdir=str(tmp_path / "work"),
        )
        report = orchestrate(
            local_workers(1), backend, 1, retries=0, heartbeat=None
        )
        assert not report.complete
        assert "no usable export" in report.failed[0].error
