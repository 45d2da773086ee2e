"""Tests for the record-streaming path: sinks, spools and recovery.

The contract under test (:mod:`repro.engine.sink`,
:func:`repro.engine.runner.run_cases` with ``sink=``,
:meth:`repro.engine.results.BatchResult.load_spool`): a sweep streamed
to an append-only JSONL spool rebuilds into a :class:`BatchResult` —
and a ``--json`` export — byte-identical to the in-memory path; a spool
left by a killed driver loads as a clean partial result (torn tail
dropped, everything durable kept); and spools feed the same merge
machinery as exports, overlap rejection included.
"""

import json

import pytest

from repro.engine import (
    BatchResult,
    Case,
    GridSpec,
    JsonlRecordSink,
    RecordSink,
    ShardSpec,
    expand_grid,
    family,
    read_spool,
    run_batch,
    run_cases,
)
from repro.engine.grids import ScheduleRecipe


def _grid(seed=7, count=4):
    return GridSpec(
        n=5,
        t=2,
        algorithms=("att2", "floodset"),
        families=(family("random_es", "random_es", count=count, horizon=10),),
        seed=seed,
        proposal_mode="random",
    )


def _stream(path, cases):
    """Stream *cases* into a JSONL spool at *path*; the appended count."""
    sink = JsonlRecordSink(path)
    try:
        assert run_cases(cases, sink=sink) == []
    finally:
        sink.close()
    return sink.count


def _spooled(tmp_path, grid, name="spool.jsonl"):
    path = str(tmp_path / name)
    return path, _stream(path, expand_grid(grid))


class TestSpoolRoundTrip:
    def test_rebuilt_result_is_byte_identical(self, tmp_path):
        grid = _grid()
        in_memory = run_batch(grid)
        path, count = _spooled(tmp_path, grid)
        rebuilt = BatchResult.load_spool(path)
        assert count == in_memory.case_count
        assert rebuilt.to_json(indent=2) == in_memory.to_json(indent=2)

    def test_saved_export_is_byte_identical(self, tmp_path):
        grid = _grid()
        mem_path = str(tmp_path / "mem.json")
        spool_export = str(tmp_path / "spooled.json")
        run_batch(grid).save(mem_path)
        path, _count = _spooled(tmp_path, grid)
        BatchResult.load_spool(path).save(spool_export)
        with open(mem_path, "rb") as a, open(spool_export, "rb") as b:
            assert a.read() == b.read()

    def test_load_sniffs_spools_transparently(self, tmp_path):
        # BatchResult.load accepts both formats at one entry point, so
        # `repro merge` can mix shard exports and spools freely.
        grid = _grid()
        path, _count = _spooled(tmp_path, grid)
        assert BatchResult.load(path).records == run_batch(grid).records

    def test_spool_lines_are_canonical_json(self, tmp_path):
        path, count = _spooled(tmp_path, grid := _grid())
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == count == grid.case_count
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_sink_satisfies_protocol(self, tmp_path):
        sink = JsonlRecordSink(str(tmp_path / "s.jsonl"))
        try:
            assert isinstance(sink, RecordSink)
        finally:
            sink.close()


class TestMergeAfterStream:
    def test_sharded_spools_merge_to_whole_grid(self, tmp_path):
        grid = _grid()
        paths = []
        for index in range(2):
            path = str(tmp_path / f"shard{index}.jsonl")
            shard = ShardSpec(index=index, count=2)
            _stream(path, shard.select(expand_grid(grid)))
            paths.append(path)
        merged = BatchResult.merge(
            [BatchResult.load(path) for path in reversed(paths)]
        )
        assert merged.to_json() == run_batch(grid).to_json()

    def test_cli_shard_spools_merge_to_the_in_memory_export(
        self, tmp_path, capsys
    ):
        # The multi-machine recipe end to end: every shard streams to
        # its own spool, and `repro merge` reads the spools directly.
        from repro.cli import main

        grid_path = str(tmp_path / "grid.json")
        _grid().save(grid_path)
        whole = tmp_path / "whole.json"
        merged = tmp_path / "merged.json"
        assert main(["sweep", "--grid", grid_path,
                     "--json", str(whole)]) == 0
        spools = [str(tmp_path / f"shard{i}.jsonl") for i in range(3)]
        for i, spool in enumerate(spools):
            assert main(["sweep", "--grid", grid_path, "--backend",
                         "serial", "--shard", f"{i}/3",
                         "--spool", spool]) == 0
        assert main(["merge", *spools, "--json", str(merged)]) == 0
        capsys.readouterr()
        assert merged.read_bytes() == whole.read_bytes()

    def test_overlapping_spools_are_rejected(self, tmp_path):
        grid = _grid()
        first, _ = _spooled(tmp_path, grid, "a.jsonl")
        second, _ = _spooled(tmp_path, grid, "b.jsonl")
        with pytest.raises(ValueError, match="shards overlap"):
            BatchResult.merge(
                [BatchResult.load(first), BatchResult.load(second)]
            )

    def test_double_streamed_spool_is_rejected_at_load(self, tmp_path):
        # Appending one grid to a spool twice duplicates every case
        # index; the spool must refuse to load rather than double-count.
        path, _ = _spooled(tmp_path, _grid())
        _stream(path, expand_grid(_grid()))
        with pytest.raises(ValueError, match="shards overlap"):
            BatchResult.load_spool(path)


class TestKilledDriverRecovery:
    def test_killed_shard_merges_partial_until_rerun(
        self, tmp_path, capsys
    ):
        # Shard 0/3 is killed after its first record, mid-write of the
        # second.  Merging its torn spool must not pass for the whole
        # grid; rerunning the shard into a fresh spool recovers it.
        from repro.cli import main

        grid_path = str(tmp_path / "grid.json")
        _grid().save(grid_path)
        whole = tmp_path / "whole.json"
        merged = tmp_path / "merged.json"
        assert main(["sweep", "--grid", grid_path,
                     "--json", str(whole)]) == 0
        spools = [str(tmp_path / f"shard{i}.jsonl") for i in range(3)]
        for i, spool in enumerate(spools):
            assert main(["sweep", "--grid", grid_path, "--backend",
                         "serial", "--shard", f"{i}/3",
                         "--spool", spool]) == 0
        with open(spools[0], "r", encoding="utf-8") as handle:
            first, second = handle.read().splitlines()[:2]
        killed = str(tmp_path / "killed.jsonl")
        with open(killed, "w", encoding="utf-8") as handle:
            handle.write(first + "\n" + second[: len(second) // 2])
        capsys.readouterr()
        assert main(["merge", killed, *spools[1:],
                     "--json", str(merged)]) == 1
        assert "2 case indices in 0..7 are missing (first: [3, 6])" in (
            capsys.readouterr().out
        )
        assert not merged.exists()
        rerun = str(tmp_path / "rerun.jsonl")
        assert main(["sweep", "--grid", grid_path, "--backend", "serial",
                     "--shard", "0/3", "--spool", rerun]) == 0
        assert main(["merge", rerun, *spools[1:],
                     "--json", str(merged)]) == 0
        assert merged.read_bytes() == whole.read_bytes()

    def test_torn_tail_loads_as_clean_partial(self, tmp_path):
        # A driver killed mid-write leaves a truncated final line; the
        # spool must recover every complete record and drop the tail.
        grid = _grid()
        path, count = _spooled(tmp_path, grid)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        torn = str(tmp_path / "torn.jsonl")
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
            handle.write(lines[-1][: len(lines[-1]) // 2])
        partial = BatchResult.load_spool(torn)
        assert partial.case_count == count - 1
        whole = run_batch(grid)
        assert partial.records == whole.records[:-1]

    def test_corruption_before_the_tail_is_an_error(self, tmp_path):
        # Only the *final* line may be torn — a malformed line with
        # records after it means real corruption, not a kill.
        path, _ = _spooled(tmp_path, _grid())
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        corrupt = str(tmp_path / "corrupt.jsonl")
        with open(corrupt, "w", encoding="utf-8") as handle:
            handle.write(lines[0][:20] + "\n")
            handle.write("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r":1: malformed"):
            list(read_spool(corrupt))

    def test_reopened_spool_is_appended_not_truncated(self, tmp_path):
        # A driver that resumes into its own spool keeps what the
        # killed run already wrote.
        grid = _grid()
        cases = expand_grid(grid)
        path = str(tmp_path / "resumed.jsonl")
        half = len(cases) // 2
        assert _stream(path, cases[:half]) == half
        assert _stream(path, cases[half:]) == len(cases) - half
        assert BatchResult.load(path).to_json() == run_batch(grid).to_json()

    def test_sink_context_manager_leaves_every_record_readable(
        self, tmp_path
    ):
        grid = _grid(count=2)
        path = str(tmp_path / "managed.jsonl")
        with JsonlRecordSink(path) as sink:
            assert run_cases(expand_grid(grid), sink=sink) == []
        assert sink.count == grid.case_count
        assert BatchResult.load_spool(path).records == run_batch(grid).records

    def test_empty_spool_is_an_empty_result(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert BatchResult.load_spool(str(path)).case_count == 0


class TestSinkBoundsMemory:
    def test_run_cases_with_a_sink_returns_nothing(self, tmp_path):
        case = Case(
            index=0,
            algorithm="att2",
            workload="ff",
            recipe=ScheduleRecipe(family("ff", "failure_free", horizon=8),
                                  3, 1, 0),
            proposals=(0, 1, 2),
        )
        sink = JsonlRecordSink(str(tmp_path / "one.jsonl"))
        try:
            assert run_cases([case], sink=sink) == []
        finally:
            sink.close()
        (record,) = read_spool(str(tmp_path / "one.jsonl"))
        assert record.algorithm == "att2"

    def test_sink_receives_every_record(self, tmp_path, list_sink):
        grid = _grid(count=3)
        path = str(tmp_path / "counted.jsonl")
        count = _stream(path, expand_grid(grid))
        assert count == grid.case_count
        assert BatchResult.load_spool(path).case_count == grid.case_count
        assert run_cases(expand_grid(grid), sink=list_sink) == []
        assert sorted(r.case_index for r in list_sink.records) == list(
            range(grid.case_count)
        )
