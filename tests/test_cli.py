"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_algorithms(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "att2" in out
        assert "hurfin_raynal" in out


class TestRun:
    def test_basic_run(self, capsys):
        code = main([
            "run", "--algorithm", "att2", "--n", "5", "--t", "2",
            "--workload", "cascade",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "global decision round: 4" in out
        assert "consensus properties: ok" in out

    def test_diagram_flag(self, capsys):
        code = main([
            "run", "--algorithm", "floodset", "--n", "3", "--t", "1",
            "--workload", "failure_free", "--diagram",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "proc" in out

    def test_custom_proposals(self, capsys):
        code = main([
            "run", "--algorithm", "att2", "--n", "3", "--t", "1",
            "--workload", "failure_free", "--proposals", "7,8,9",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "7" in out

    def test_proposal_count_mismatch(self):
        with pytest.raises(SystemExit):
            main([
                "run", "--n", "3", "--t", "1", "--proposals", "1,2",
            ])

    def test_non_integer_proposals_exit_cleanly(self):
        # A typo'd proposal list must produce the clean SystemExit message,
        # not a raw ValueError traceback.
        with pytest.raises(SystemExit, match="comma-separated integers"):
            main([
                "run", "--n", "3", "--t", "1", "--proposals", "1,x,3",
            ])

    @pytest.mark.parametrize("algorithm, n, t", [
        ("afp2", 5, 2), ("amr_leader", 5, 2), ("amr_leader", 7, 3),
        ("att2", 4, 2),
    ])
    def test_algorithm_rejecting_the_size_exits_with_one_line(
        self, algorithm, n, t
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--algorithm", algorithm, "--n", str(n),
                  "--t", str(t)])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"invalid system size for {algorithm}: ")

    def test_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "--workload", "nope"])

    def test_unknown_workload_exits_with_one_line(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--workload", "nope"])
        assert exit_info.value.code == (
            "unknown workload 'nope'; known: async_prefix, block, cascade, "
            "failure_free, hiding_chain, killer2, killer3"
        )

    def test_unknown_algorithm_exits_with_one_line(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--algorithm", "nope"])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("unknown algorithm 'nope'; known: ")
        assert "att2, att2_optimized" in message

    def test_diagram_renders_the_full_trace(self, capsys):
        # run always records every round, so --diagram needs no flag.
        code = main([
            "run", "--algorithm", "att2", "--n", "5", "--t", "2",
            "--workload", "cascade", "--diagram",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "att2 on cascade" in out
        assert "round 4: decided=" in out

    @pytest.mark.parametrize("horizon", ["-2", "0"])
    def test_horizon_below_one_exits_cleanly(self, horizon):
        with pytest.raises(SystemExit, match="--horizon must be >= 1"):
            main(["run", "--horizon", horizon])

    @pytest.mark.parametrize("workload, horizon", [
        ("killer3", "2"), ("cascade", "1"), ("hiding_chain", "1"),
    ])
    def test_horizon_too_short_for_the_workload_exits_with_one_line(
        self, workload, horizon
    ):
        # These workloads crash a process after round 1 or 2, which a
        # shorter horizon cannot hold.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--algorithm", "att2", "--workload", workload,
                  "--horizon", horizon])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(
            f"cannot build workload {workload!r} with --horizon {horizon}: "
        )
        assert "crashes after the horizon" in message

    def test_async_prefix_workload(self, capsys):
        code = main([
            "run", "--algorithm", "afp2", "--n", "4", "--t", "1",
            "--workload", "async_prefix", "--sync-after", "2",
        ])
        assert code == 0

    def test_violation_returns_nonzero(self, capsys):
        # FloodSetWS on an async-prefix workload can disagree; exercise the
        # violation path via the killer of test_floodset_ws: not available
        # through the CLI workloads, so use floodset (SCS-only) on
        # async_prefix, which merely stays safe — instead check rc-0 here.
        code = main([
            "run", "--algorithm", "floodset_ws", "--n", "3", "--t", "1",
            "--workload", "failure_free",
        ])
        assert code == 0


def _generator_schedule(name, n, t, horizon, sync_after):
    """The schedule ``run --workload name`` names, from its generator."""
    from repro.model.schedule import Schedule
    from repro.workloads import (
        async_prefix,
        block_crashes,
        coordinator_killer,
        serial_cascade,
        value_hiding_chain,
    )

    if name == "failure_free":
        return Schedule.failure_free(n, t, horizon)
    if name == "cascade":
        return serial_cascade(n, t, horizon)
    if name == "hiding_chain":
        return value_hiding_chain(n, t, horizon)
    if name == "block":
        return block_crashes(n, t, horizon)
    if name == "killer2":
        return coordinator_killer(n, t, horizon, rounds_per_cycle=2)
    if name == "killer3":
        return coordinator_killer(n, t, horizon, rounds_per_cycle=3)
    assert name == "async_prefix"
    return async_prefix(n, t, horizon, k=sync_after)


class TestRunWorkloadSchedules:
    """``run --workload`` builds through the grid's generator table, and
    each name gives its workload generator's schedule."""

    @pytest.mark.parametrize("name", [
        "failure_free", "cascade", "hiding_chain", "block",
        "killer2", "killer3", "async_prefix",
    ])
    def test_workload_builds_its_generators_schedule(self, name):
        from repro.cli import _build_workload

        for n, t, horizon in [(5, 2, 24), (7, 3, 30)]:
            built = _build_workload(name, n, t, horizon, 3)
            expected = _generator_schedule(name, n, t, horizon, 3)
            assert built == expected
            assert built.digest() == expected.digest()

    def test_sync_after_sets_the_async_prefix(self):
        from repro.cli import _build_workload

        built = {
            k: _build_workload("async_prefix", 5, 2, 24, k)
            for k in (1, 2, 5)
        }
        for k, schedule in built.items():
            assert schedule == _generator_schedule(
                "async_prefix", 5, 2, 24, k
            )
        assert len({schedule.digest() for schedule in built.values()}) == 3


class TestExperiments:
    def test_prints_tables(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E5: the price of indulgence" in out
        assert "E10: split-brain" in out


class TestSweep:
    ARGS = [
        "sweep", "--cases-per-family", "2", "--seed", "3",
        "--algorithms", "att2,floodset,hurfin_raynal",
    ]

    def test_runs_and_reports_safety(self, capsys):
        assert main(self.ARGS + ["--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "Batch sweep" in out
        assert "att2" in out and "floodset" in out
        assert "safety (agreement + validity): ok" in out

    def test_parallel_json_matches_serial(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(self.ARGS + ["--workers", "1", "--json",
                                 str(serial)]) == 0
        assert main(self.ARGS + ["--workers", "2", "--json",
                                 str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("algorithms", ["nope", "att2,nope"])
    def test_unknown_algorithm_exits_with_one_line(self, algorithms):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--algorithms", algorithms])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("unknown algorithm 'nope'; known: ")
        assert "att2, att2_optimized" in message

    @pytest.mark.parametrize("backend", [
        ["--backend", "serial"], ["--backend", "processes", "--workers", "2"],
    ])
    def test_algorithm_rejecting_the_size_exits_with_one_line(
        self, backend, monkeypatch
    ):
        import repro.engine

        def boom(*args, **kwargs):
            raise AssertionError("grid executed despite an unsupported size")

        monkeypatch.setattr(repro.engine, "run_batch", boom)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--algorithms", "att2,afp2", "--n", "5", "--t",
                  "2", "--cases-per-family", "1"] + backend)
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("invalid system size for afp2: "
                                  "A_f+2 requires t < n/3")

    def test_algorithm_names_are_stripped_before_empties_drop(self, capsys):
        assert main(["sweep", "--algorithms", "att2, ",
                     "--cases-per-family", "1", "--backend", "serial"]) == 0
        assert "1 algorithms x" in capsys.readouterr().out.splitlines()[0]

    def test_default_grid_meets_acceptance_floor(self, capsys):
        assert main(["sweep", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        first_line = out.splitlines()[0]
        cases = int(first_line.split()[1])
        assert cases >= 100
        assert "5 algorithms" in first_line

    def test_unwritable_json_path_fails_before_running(self, monkeypatch):
        # The output path is validated before any case executes, so a typo
        # cannot cost a full grid of compute.
        import repro.engine

        def boom(*args, **kwargs):
            raise AssertionError("grid executed despite bad --json path")

        monkeypatch.setattr(repro.engine, "run_batch", boom)
        with pytest.raises(SystemExit, match="cannot write --json"):
            main(self.ARGS + ["--json", "/nonexistent-dir/sweep.json"])


class TestSweepSpool:
    """``--spool`` streams every record through ``runner.run_cases`` into
    a JSONL spool and rebuilds the result from it."""

    ARGS = TestSweep.ARGS

    def _sweep(self, tmp_path, name, *extra):
        export = tmp_path / f"{name}.json"
        assert main(self.ARGS + [*extra, "--json", str(export)]) == 0
        return export

    def test_spool_export_matches_in_memory_export(self, capsys, tmp_path):
        import json

        memory = self._sweep(tmp_path, "memory", "--backend", "serial")
        spool = tmp_path / "sweep.jsonl"
        spooled = self._sweep(tmp_path, "spooled", "--backend", "serial",
                              "--spool", str(spool))
        count = len(json.loads(memory.read_text())["records"])
        assert f"spooled {count} records to {spool}" in (
            capsys.readouterr().out
        )
        assert spooled.read_bytes() == memory.read_bytes()

    def test_pooled_spool_matches_serial_export(self, capsys, tmp_path):
        # Pool completion order reaches the spool unsorted; the reload
        # restores the canonical order.
        serial = self._sweep(tmp_path, "serial", "--backend", "serial")
        pooled = self._sweep(
            tmp_path, "pooled", "--backend", "processes", "--workers", "2",
            "--spool", str(tmp_path / "pooled.jsonl"),
        )
        capsys.readouterr()
        assert pooled.read_bytes() == serial.read_bytes()

    def test_spool_runs_through_the_runner_module(
        self, capsys, tmp_path, monkeypatch
    ):
        # Wrappers installed on ``repro.engine.runner`` see the spool path.
        from repro.engine import runner

        sinks = []
        real = runner.run_cases

        def recording(cases, **kwargs):
            sinks.append(kwargs["sink"])
            return real(cases, **kwargs)

        monkeypatch.setattr(runner, "run_cases", recording)
        self._sweep(tmp_path, "spooled", "--backend", "serial",
                    "--spool", str(tmp_path / "sweep.jsonl"))
        capsys.readouterr()
        assert len(sinks) == 1 and sinks[0] is not None

    def test_non_empty_spool_rejected_before_running(self, tmp_path):
        spool = tmp_path / "old.jsonl"
        spool.write_text("{}\n")
        with pytest.raises(SystemExit, match="already exists and is not "
                                             "empty"):
            main(self.ARGS + ["--spool", str(spool)])
        assert spool.read_text() == "{}\n"


class TestSweepCache:
    ARGS = [
        "sweep", "--cases-per-family", "2", "--seed", "3",
        "--algorithms", "att2,floodset", "--workers", "4",
    ]

    def _run(self, capsys, extra):
        assert main(self.ARGS + extra) == 0
        return capsys.readouterr().out

    def test_cold_then_warm_is_all_hits_and_byte_identical(
        self, capsys, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        cold = self._run(
            capsys, ["--cache", cache_dir, "--json", str(cold_json)]
        )
        warm = self._run(
            capsys, ["--cache", cache_dir, "--json", str(warm_json)]
        )
        cases = int(cold.splitlines()[0].split()[1])
        assert f"cache: 0 hits, {cases} misses" in cold
        assert f"cache: {cases} hits, 0 misses" in warm
        assert cold_json.read_bytes() == warm_json.read_bytes()

    def test_cache_output_matches_uncached(self, capsys, tmp_path):
        cached_json = tmp_path / "cached.json"
        plain_json = tmp_path / "plain.json"
        self._run(capsys, ["--cache", str(tmp_path / "cache"),
                           "--json", str(cached_json)])
        self._run(capsys, ["--json", str(plain_json)])
        assert cached_json.read_bytes() == plain_json.read_bytes()

    def test_no_cache_bypasses(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._run(capsys, ["--cache", cache_dir])
        out = self._run(capsys, ["--cache", cache_dir, "--no-cache"])
        assert "cache:" not in out

    def test_garbage_database_costs_only_time(self, capsys, tmp_path):
        # cache.sqlite3 overwritten with garbage: every lookup misses and
        # every store fails, but the sweep completes byte-identically.
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "cache.sqlite3").write_bytes(b"not a database\n" * 512)
        cached_json = tmp_path / "cached.json"
        plain_json = tmp_path / "plain.json"
        out = self._run(
            capsys, ["--cache", str(cache_dir), "--json", str(cached_json)]
        )
        self._run(capsys, ["--json", str(plain_json)])
        assert cached_json.read_bytes() == plain_json.read_bytes()
        cases = int(out.splitlines()[0].split()[1])
        assert (
            f"cache: 0 hits, {cases} misses, {cases} store failures" in out
        )
        with pytest.raises(SystemExit, match="unreadable cache database"):
            main(["cache", "stats", str(cache_dir)])

    def test_unusable_cache_dir_fails_cleanly(self, tmp_path):
        # A file where the cache directory should go: clean SystemExit,
        # not a Path.mkdir traceback.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(SystemExit, match="cannot use --cache"):
            main(self.ARGS + ["--cache", str(blocker)])


def _serial_grid_with_too_few_rounds(tmp_path):
    path = tmp_path / "serial.json"
    path.write_text(
        '{"version": 1, "n": 25, "t": 12, "algorithms": ["att2"],'
        ' "families": [{"name": "ser", "kind": "random_serial",'
        ' "count": 20, "horizon": 8}], "seed": 0, "proposal_mode": "range"}',
        encoding="utf-8",
    )
    return path


def _grid_with_family(tmp_path, entry):
    """A n = 9, t = 4 grid file whose one family is *entry*."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "version": 1, "n": 9, "t": 4, "algorithms": ["att2"],
        "families": [entry], "seed": 0, "proposal_mode": "range",
    }), encoding="utf-8")
    return path


#: Families the generators would reject when building a schedule.
_REJECTED_FAMILIES = [
    pytest.param(
        {"name": "bad", "kind": kind, "count": 3, "horizon": 18,
         "params": {"max_crashes": -1}},
        "max_crashes must be an integer >= 0", id=f"{kind}-negative-cap",
    )
    for kind in ("random_es", "random_scs", "random_serial")
] + [
    pytest.param(
        {"name": "bad", "kind": "killer", "horizon": 18,
         "params": {"bogus": 1}},
        "killer takes no params \\['bogus'\\]", id="killer-bogus",
    ),
]


class TestSweepValidation:
    ARGS = ["sweep", "--cases-per-family", "2", "--algorithms", "att2"]

    def test_workers_zero_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(self.ARGS + ["--workers", "0"])

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(self.ARGS + ["--workers", "-3"])

    def test_malformed_shard_rejected(self):
        with pytest.raises(SystemExit, match="malformed shard"):
            main(self.ARGS + ["--shard", "banana"])

    def test_shard_index_at_or_past_count_rejected(self):
        with pytest.raises(SystemExit, match="shard index"):
            main(self.ARGS + ["--shard", "2/2"])

    @pytest.mark.parametrize("text,reason", [
        ("3/2", "shard index"),
        ("-1/2", "shard index"),
        ("0/0", "shard count"),
    ])
    def test_out_of_range_shard_rejected(self, text, reason):
        with pytest.raises(SystemExit, match=reason):
            main(self.ARGS + [f"--shard={text}"])

    def test_threads_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--backend", "threads"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'threads'" in err
        assert "'serial', 'processes'" in err

    def test_serial_backend_with_parallel_workers_rejected(self):
        with pytest.raises(SystemExit, match="serial backend"):
            main(self.ARGS + ["--backend", "serial", "--workers", "4"])

    def test_grid_and_algorithms_mutually_exclusive(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--grid", str(path), "--algorithms", "att2"])

    def test_grid_rejects_every_explicit_shaping_flag(self, tmp_path):
        # A grid file defines the whole experiment; silently ignoring an
        # explicit --seed would let someone publish numbers for a sweep
        # they never ran.
        path = tmp_path / "grid.json"
        path.write_text("{}")
        for flags in (["--seed", "9"], ["--n", "5"], ["--t", "2"],
                      ["--cases-per-family", "4"],
                      ["--proposals-mode", "range"]):
            with pytest.raises(SystemExit, match="mutually exclusive"):
                main(["sweep", "--grid", str(path)] + flags)

    def test_wrongly_typed_grid_file_fails_cleanly(self, tmp_path):
        # count as a JSON string: clean SystemExit naming the key, not a
        # TypeError traceback out of GridSpec validation.
        path = tmp_path / "grid.json"
        path.write_text(
            '{"version": 1, "n": 5, "t": 2, "algorithms": ["att2"],'
            ' "seed": 0, "proposal_mode": "range",'
            ' "families": [{"name": "es", "kind": "random_es",'
            ' "count": "4"}]}'
        )
        with pytest.raises(SystemExit, match="'count' must be"):
            main(["sweep", "--grid", str(path)])

    def test_missing_grid_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read --grid"):
            main(["sweep", "--grid", str(tmp_path / "absent.json")])

    def test_invalid_grid_file_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"version": 99}')
        with pytest.raises(SystemExit, match="invalid --grid"):
            main(["sweep", "--grid", str(path)])

    def test_serial_family_with_too_few_rounds_exits_with_one_line(
        self, tmp_path
    ):
        path = _serial_grid_with_too_few_rounds(tmp_path)
        with pytest.raises(SystemExit, match="invalid --grid.*'ser'"):
            main(["sweep", "--grid", str(path)])

    @pytest.mark.parametrize("entry, reason", _REJECTED_FAMILIES)
    def test_family_the_generator_rejects_exits_with_one_line(
        self, tmp_path, entry, reason
    ):
        path = _grid_with_family(tmp_path, entry)
        match = f"invalid --grid.*'bad'.*{reason}"
        with pytest.raises(SystemExit, match=match):
            main(["sweep", "--grid", str(path)])


class TestSweepGridFiles:
    ARGS = [
        "sweep", "--cases-per-family", "2", "--seed", "3",
        "--algorithms", "att2,floodset", "--backend", "serial",
    ]

    def test_save_grid_roundtrips_through_sweep(self, capsys, tmp_path):
        from repro.engine import GridSpec

        grid_path = tmp_path / "grid.json"
        flags_json = tmp_path / "flags.json"
        file_json = tmp_path / "file.json"
        assert main(self.ARGS + ["--save-grid", str(grid_path),
                                 "--json", str(flags_json)]) == 0
        loaded = GridSpec.load(str(grid_path))
        assert loaded.algorithms == ("att2", "floodset")
        assert loaded.seed == 3
        assert main(["sweep", "--grid", str(grid_path), "--backend",
                     "serial", "--json", str(file_json)]) == 0
        capsys.readouterr()
        assert flags_json.read_bytes() == file_json.read_bytes()


class TestSweepShardsAndMerge:
    ARGS = [
        "sweep", "--cases-per-family", "2", "--seed", "3",
        "--algorithms", "att2,floodset",
    ]

    def test_sharded_sweeps_merge_byte_identical(self, capsys, tmp_path):
        whole = tmp_path / "whole.json"
        merged = tmp_path / "merged.json"
        shards = [tmp_path / f"shard{i}.json" for i in range(2)]
        backends = [["--backend", "processes", "--workers", "2"],
                    ["--backend", "serial"]]
        assert main(self.ARGS + ["--json", str(whole)]) == 0
        for i, (path, backend) in enumerate(zip(shards, backends)):
            assert main(self.ARGS + ["--shard", f"{i}/2", *backend,
                                     "--json", str(path)]) == 0
        # Merge in reversed arrival order: the output must not care.
        assert main(["merge", str(shards[1]), str(shards[0]),
                     "--json", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "merged" in out
        assert merged.read_bytes() == whole.read_bytes()

    def test_shard_line_reports_slice(self, capsys):
        assert main(self.ARGS + ["--shard", "0/2"]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert "shard 0/2 of 18" in first_line
        assert first_line.startswith("sweep: 9 cases")

    def test_merge_rejects_overlapping_shards(self, capsys, tmp_path):
        shard = tmp_path / "shard.json"
        merged = tmp_path / "merged.json"
        assert main(self.ARGS + ["--shard", "0/2", "--json",
                                 str(shard)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="shards overlap"):
            main(["merge", str(shard), str(shard), "--json", str(merged)])

    def test_overlap_is_rejected_before_any_gap_is_reported(
        self, capsys, tmp_path
    ):
        # Shard 0/3 twice both overlaps and leaves gaps; the overlap is
        # the error, and no partial export is written for it.
        shard = tmp_path / "shard.json"
        merged = tmp_path / "merged.json"
        assert main(self.ARGS + ["--shard", "0/3", "--json",
                                 str(shard)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="shards overlap"):
            main(["merge", str(shard), str(shard), "--json", str(merged)])
        assert not merged.exists()
        assert not (tmp_path / "merged.json.partial").exists()

    def test_merge_rejects_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="invalid shard export"):
            main(["merge", str(bad), "--json", str(tmp_path / "out.json")])

    def test_merge_rejects_records_without_case_indices(self, tmp_path):
        from repro.analysis.sweep import SweepRecord
        from repro.engine import BatchResult

        export = tmp_path / "shard.json"
        assert main(self.ARGS + ["--backend", "serial",
                                 "--json", str(export)]) == 0
        record = BatchResult.load(str(export)).records[0]
        hand_built = SweepRecord(**{**record.to_data(), "case_index": -1})
        BatchResult(records=(hand_built,)).save(str(export))
        with pytest.raises(SystemExit, match="without case indices"):
            main(["merge", str(export), "--json",
                  str(tmp_path / "out.json")])

    def test_merge_missing_input_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read shard"):
            main(["merge", str(tmp_path / "nope.json"),
                  "--json", str(tmp_path / "out.json")])

    def test_merge_checks_its_output_before_reading_inputs(self, tmp_path):
        out = tmp_path / "no-such-dir" / "out.json"
        with pytest.raises(SystemExit, match="cannot write --json output"):
            main(["merge", str(tmp_path / "nope.json"), "--json", str(out)])

    def test_merge_requires_an_output(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["merge", str(tmp_path / "shard.json")])
        assert exc.value.code == 2
        assert "--json" in capsys.readouterr().err

    def test_merge_requires_an_input(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--json", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        assert "inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("index,size", [(0, 5), (1, 5), (2, 4), (3, 4)])
    def test_each_shard_line_reports_its_slice(self, capsys, index, size):
        # 18 cases dealt round-robin to 4 hosts: 5, 5, 4, 4.
        assert main(self.ARGS + ["--shard", f"{index}/4"]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert first_line.startswith(f"sweep: {size} cases")
        assert f"shard {index}/4 of 18" in first_line

    def test_merge_mixes_json_exports_and_spools(self, capsys, tmp_path):
        # One host kept a --json export, the other only its --spool.
        whole = tmp_path / "whole.json"
        export = tmp_path / "shard0.json"
        spool = tmp_path / "shard1.jsonl"
        merged = tmp_path / "merged.json"
        assert main(self.ARGS + ["--json", str(whole)]) == 0
        assert main(self.ARGS + ["--shard", "0/2",
                                 "--json", str(export)]) == 0
        assert main(self.ARGS + ["--shard", "1/2",
                                 "--spool", str(spool)]) == 0
        assert main(["merge", str(spool), str(export),
                     "--json", str(merged)]) == 0
        capsys.readouterr()
        assert merged.read_bytes() == whole.read_bytes()

    def test_merge_of_the_whole_export_is_the_identity(
        self, capsys, tmp_path
    ):
        whole = tmp_path / "whole.json"
        merged = tmp_path / "merged.json"
        assert main(self.ARGS + ["--json", str(whole)]) == 0
        assert main(["merge", str(whole), "--json", str(merged)]) == 0
        assert "merged 18 records from 1 shards" in capsys.readouterr().out
        assert merged.read_bytes() == whole.read_bytes()

    def test_shards_sharing_a_cache_merge_and_warm_the_whole(
        self, capsys, tmp_path
    ):
        # Hosts on one machine may share a --cache: the shards still
        # merge to the uncached export, and together they fill the
        # cache for every case of the whole grid.
        whole = tmp_path / "whole.json"
        merged = tmp_path / "merged.json"
        warm = tmp_path / "warm.json"
        cache = str(tmp_path / "cache")
        shards = [tmp_path / f"shard{i}.json" for i in range(3)]
        assert main(self.ARGS + ["--json", str(whole)]) == 0
        for i, path in enumerate(shards):
            assert main(self.ARGS + ["--shard", f"{i}/3", "--cache", cache,
                                     "--json", str(path)]) == 0
        assert main(["merge", *map(str, shards),
                     "--json", str(merged)]) == 0
        capsys.readouterr()
        assert merged.read_bytes() == whole.read_bytes()
        assert main(self.ARGS + ["--cache", cache,
                                 "--json", str(warm)]) == 0
        assert "cache: 18 hits, 0 misses" in capsys.readouterr().out
        assert warm.read_bytes() == whole.read_bytes()

    def test_empty_spool_is_refused_without_writing_anything(
        self, capsys, tmp_path
    ):
        # A host killed before its first record leaves an empty spool.
        # It is not an export, so the merge names it and writes neither
        # the whole export nor a partial one; rerun that shard.
        spools = [tmp_path / f"shard{i}.jsonl" for i in range(3)]
        for i in (0, 2):
            assert main(self.ARGS + ["--shard", f"{i}/3",
                                     "--spool", str(spools[i])]) == 0
        spools[1].write_text("")
        merged = tmp_path / "merged.json"
        with pytest.raises(SystemExit, match="invalid shard export.*shard1"):
            main(["merge", *map(str, spools), "--json", str(merged)])
        assert not merged.exists()
        assert not (tmp_path / "merged.json.partial").exists()

    def test_partial_report_lists_the_count_and_first_ten_missing(
        self, capsys, tmp_path
    ):
        from repro.engine import BatchResult

        whole = tmp_path / "whole.json"
        ends = tmp_path / "ends.json"
        merged = tmp_path / "merged.json"
        assert main(self.ARGS + ["--json", str(whole)]) == 0
        records = BatchResult.load(str(whole)).records
        BatchResult(records=(records[0], records[-1])).save(str(ends))
        capsys.readouterr()
        assert main(["merge", str(ends), "--json", str(merged)]) == 1
        out = capsys.readouterr().out
        assert "16 case indices in 0..17 are missing" in out
        assert "(first: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])" in out
        partial = BatchResult.load(f"{merged}.partial")
        assert partial.records == (records[0], records[-1])

    @pytest.mark.parametrize("count,missing", [
        (count, missing) for count in (2, 3, 4) for missing in range(count)
    ])
    def test_merge_detects_any_one_missing_shard(
        self, capsys, tmp_path, count, missing
    ):
        # 9 cases, so every shard holds at least two indices: whichever
        # shard is absent, one of them lies below the top index left.
        from repro.engine import ShardSpec, expand_grid, run_batch
        from repro.engine.grids import default_sweep_grid

        grid = default_sweep_grid(5, 2, seed=3, algorithms=("att2",),
                                  cases_per_family=2)
        cases = expand_grid(grid)
        inputs = []
        for index in range(count):
            if index == missing:
                continue
            path = tmp_path / f"shard{index}.json"
            run_batch(ShardSpec(index, count).select(cases)).save(str(path))
            inputs.append(str(path))
        merged = tmp_path / "merged.json"
        assert main(["merge", *inputs, "--json", str(merged)]) == 1
        assert "are missing" in capsys.readouterr().out
        assert not merged.exists()
        assert (tmp_path / "merged.json.partial").exists()

    LARGE = ["sweep", "--profile", "large", "--backend", "serial"]

    def _large_shards(self, tmp_path, capsys):
        shards = [tmp_path / f"large{i}.json" for i in range(3)]
        for i, path in enumerate(shards):
            assert main(self.LARGE + ["--shard", f"{i}/3",
                                      "--json", str(path)]) == 0
        capsys.readouterr()
        return shards

    def test_merge_with_a_missing_shard_writes_only_partial(
        self, capsys, tmp_path
    ):
        shards = self._large_shards(tmp_path, capsys)
        merged = tmp_path / "merged.json"
        # Shard 1/3 holds indices 1, 4, ..., 109 of 0..109.  All but 109
        # sit below the top index left (108); 109 is a missing tail,
        # which no export records, so it goes uncounted.
        assert main(["merge", str(shards[0]), str(shards[2]),
                     "--json", str(merged)]) == 1
        out = capsys.readouterr().out
        assert "36 case indices in 0..108 are missing" in out
        assert "[1, 4, 7, 10," in out
        assert not merged.exists()
        partial = tmp_path / "merged.json.partial"
        from repro.engine import BatchResult
        assert BatchResult.load(str(partial)).case_count == 73

    def test_reversed_merge_of_every_large_shard_matches_whole(
        self, capsys, tmp_path
    ):
        shards = self._large_shards(tmp_path, capsys)
        whole = tmp_path / "whole.json"
        merged = tmp_path / "merged.json"
        assert main(["sweep", "--profile", "large",
                     "--json", str(whole)]) == 0
        assert main(["merge", *map(str, reversed(shards)),
                     "--json", str(merged)]) == 0
        assert "merged 110 records from 3 shards" in capsys.readouterr().out
        assert not (tmp_path / "merged.json.partial").exists()
        assert merged.read_bytes() == whole.read_bytes()


class TestCacheStats:
    ARGS = [
        "sweep", "--cases-per-family", "2", "--seed", "3",
        "--algorithms", "att2,floodset", "--backend", "serial",
    ]

    def test_stats_accumulate_across_sweeps(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache", cache_dir]) == 0
        assert main(self.ARGS + ["--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "18 entries" in out
        assert "18 hits, 18 misses" in out
        assert "over 2 sweeps" in out
        assert "hit rate 50.0%" in out

    def test_stats_on_fresh_cache_dir(self, capsys, tmp_path):
        from repro.engine import ResultCache

        ResultCache(tmp_path / "cache")  # created, never swept
        assert main(["cache", "stats", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out
        assert "no recorded sweeps" in out

    def test_stats_on_missing_dir_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read cache"):
            main(["cache", "stats", str(tmp_path / "absent")])


class TestSweepGridDirectory:
    def _write_grid(self, path, n, t):
        from repro.engine import default_sweep_grid

        default_sweep_grid(
            n, t, cases_per_family=2, algorithms=("att2",)
        ).save(str(path))

    def test_directory_runs_every_grid_combined(self, capsys, tmp_path):
        import json

        grids = tmp_path / "grids"
        grids.mkdir()
        self._write_grid(grids / "alpha.json", 4, 1)
        self._write_grid(grids / "beta.json", 5, 2)
        out_path = str(tmp_path / "combined.json")
        assert main([
            "sweep", "--grid", str(grids), "--backend", "serial",
            "--json", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "alpha: n=4/t=1" in out and "beta: n=5/t=2" in out
        with open(out_path, encoding="utf-8") as handle:
            data = json.load(handle)
        prefixes = {r["workload"].split(":")[0] for r in data["records"]}
        assert prefixes == {"alpha", "beta"}
        indices = [r["case_index"] for r in data["records"]]
        assert sorted(indices) == list(range(len(indices)))

    def test_single_grid_directory_behaves_like_the_file(
        self, capsys, tmp_path
    ):
        grids = tmp_path / "grids"
        grids.mkdir()
        self._write_grid(grids / "only.json", 4, 1)
        a, b = str(tmp_path / "dir.json"), str(tmp_path / "file.json")
        assert main(["sweep", "--grid", str(grids), "--backend", "serial",
                     "--json", a]) == 0
        assert main(["sweep", "--grid", str(grids / "only.json"),
                     "--backend", "serial", "--json", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no \\*.json grid files"):
            main(["sweep", "--grid", str(empty)])

    def test_save_grid_rejected_for_multi_grid_sweeps(self, tmp_path):
        grids = tmp_path / "grids"
        grids.mkdir()
        self._write_grid(grids / "a.json", 4, 1)
        self._write_grid(grids / "b.json", 5, 2)
        with pytest.raises(SystemExit, match="--save-grid"):
            main(["sweep", "--grid", str(grids),
                  "--save-grid", str(tmp_path / "out.json")])


class TestSweepProfiles:
    def test_profile_excludes_grid_and_shape_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--profile", "large",
                  "--grid", str(tmp_path / "g.json")])
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--profile", "large", "--n", "9"])

    def test_unknown_profile_fails_cleanly(self):
        with pytest.raises(SystemExit, match="unknown sweep profile"):
            main(["sweep", "--profile", "nope"])

    def test_profile_sharding_slices_the_combined_grid(self, capsys):
        # Shard 0/50 keeps the profile test affordable: a deterministic
        # 1/50th slice of the n=25 + n=50 case list still exercises
        # expansion, prefixing and execution end to end.
        assert main([
            "sweep", "--profile", "large", "--shard", "0/50",
            "--backend", "serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "n25: n=25/t=8" in out and "n50: n=50/t=16" in out
        assert "shard 0/50 of 110" in out


class TestGridValidate:
    def test_valid_file_reports_shape(self, capsys, tmp_path):
        from repro.engine import default_sweep_grid

        path = tmp_path / "grid.json"
        default_sweep_grid(5, 2, cases_per_family=2).save(str(path))
        assert main(["grid", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "n=5, t=2" in out

    def test_invalid_file_fails_with_reason(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}', encoding="utf-8")
        assert main(["grid", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "version" in out

    def test_serial_family_with_too_few_rounds_is_invalid(
        self, capsys, tmp_path
    ):
        path = _serial_grid_with_too_few_rounds(tmp_path)
        assert main(["grid", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "family 'ser'" in out

    @pytest.mark.parametrize("entry, reason", _REJECTED_FAMILIES)
    def test_family_the_generator_rejects_is_invalid(
        self, capsys, tmp_path, entry, reason
    ):
        path = _grid_with_family(tmp_path, entry)
        assert main(["grid", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "family 'bad'" in out
        assert re.search(reason, out)

    def test_directory_mixes_and_counts(self, capsys, tmp_path):
        from repro.engine import default_sweep_grid

        grids = tmp_path / "grids"
        grids.mkdir()
        default_sweep_grid(4, 1, cases_per_family=2).save(
            str(grids / "good.json")
        )
        (grids / "bad.json").write_text("not json", encoding="utf-8")
        assert main(["grid", "validate", str(grids)]) == 1
        out = capsys.readouterr().out
        assert "1 of 2 grid files invalid" in out

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no \\*.json grid files"):
            main(["grid", "validate", str(empty)])


class TestCacheGcCommand:
    ARGS = [
        "sweep", "--cases-per-family", "2", "--seed", "3",
        "--algorithms", "att2", "--backend", "serial",
    ]

    def test_gc_then_stats_reports_last_gc(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", cache_dir, "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 9 entries" in out
        assert main(["cache", "stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out
        assert "last gc: removed 9 entries" in out

    def test_gc_requires_a_bound(self, tmp_path):
        (tmp_path / "cache").mkdir()
        with pytest.raises(SystemExit, match="at least one bound"):
            main(["cache", "gc", str(tmp_path / "cache")])

    def test_gc_on_missing_dir_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot gc cache"):
            main(["cache", "gc", str(tmp_path / "absent"),
                  "--max-bytes", "0"])

    def test_stats_reports_never_gced(self, capsys, tmp_path):
        from repro.engine import ResultCache

        ResultCache(tmp_path / "cache")
        assert main(["cache", "stats", str(tmp_path / "cache")]) == 0
        assert "last gc: never" in capsys.readouterr().out


class TestRemovedCommands:
    def test_orchestrate_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orchestrate", "--profile", "large", "--local", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'orchestrate'" in capsys.readouterr().err


class TestSizeErrors:
    """Bad system sizes exit with one line, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_no_processes(self, command):
        with pytest.raises(
            SystemExit, match="invalid system size: need at least one"
        ):
            main([command, "--n", "0", "--t", "0"])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_t_not_below_n(self, command):
        with pytest.raises(
            SystemExit, match="invalid system size: t must be smaller"
        ):
            main([command, "--n", "3", "--t", "5"])

    def test_zero_cases_per_family(self):
        with pytest.raises(
            SystemExit, match="--cases-per-family must be >= 1, got 0"
        ):
            main(["sweep", "--n", "5", "--t", "2",
                  "--cases-per-family", "0"])


class TestNoTraceFlag:
    """The trace mode is a library argument: sweeps run lean and
    ``run`` records every round, so no command takes ``--trace``."""

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--backend", "serial"],
    ])
    def test_trace_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--trace", "lean"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    def test_sweep_banner_names_no_trace_mode(self, capsys):
        assert main([
            "sweep", "--cases-per-family", "1", "--algorithms", "att2",
            "--backend", "serial",
        ]) == 0
        banner = capsys.readouterr().out.splitlines()[0]
        assert banner.endswith("backend=serial")


class TestNoLintBaselineFlags:
    """Inline ``# repro: noqa[CODE]`` is the only way to keep a finding
    out of the lint gate, so ``lint`` takes no allowance-file flags."""

    @pytest.mark.parametrize("flags", [
        ["--no-baseline"],
        ["--baseline", "F"],
        ["--update-baseline"],
    ])
    def test_baseline_flag_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "src"] + flags)
        assert exc.value.code == 2
        assert (
            f"unrecognized arguments: {' '.join(flags)}"
            in capsys.readouterr().err
        )


class TestParserImports:
    """Building the parser loads no lint code and no diagram renderer:
    ``repro lint``'s arguments are wired in :mod:`repro.cli` and
    ``run --diagram`` imports the renderer when it draws."""

    def test_build_parser_imports_no_devtools(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        child = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print('\\n'.join(sorted(\n"
            "    name for name in sys.modules\n"
            "    if name.startswith('repro.devtools')\n"
            "    or name == 'repro.analysis.diagram'\n"
            ")))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_lint_module_imports_no_cli(self):
        # ``repro lint`` is the linter's one entry point: the lint module
        # has no ``main`` of its own and does not reach back into the CLI.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        child = (
            "import sys\n"
            "import repro.devtools.cli as lint_cli\n"
            "print(hasattr(lint_cli, 'main'), 'repro.cli' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_lint_subcommand_still_parses_its_arguments(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "src", "--select", "DET001"])
        assert (args.paths, args.select) == (["src"], "DET001")
