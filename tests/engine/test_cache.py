"""Tests for the content-addressed result cache (repro.engine.cache)."""

import hashlib
import inspect
import linecache
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.algorithms import registry
from repro.algorithms.registry import (
    AlgorithmInfo,
    algorithm_source_hash,
    clear_source_hash_cache,
)
from repro.engine import (
    Case,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    cache_gc,
    cache_stats,
    run_batch,
    run_cases,
)
from repro.cli import main
from repro.engine import executors as executors_module
from repro.engine import grids as grids_module
from repro.engine.cache import DB_FILE, READ_CHUNK
from repro.engine.grids import (
    SEEDED_KINDS,
    GridSpec,
    ScheduleRecipe,
    ShardSpec,
    default_sweep_grid,
    expand_grid,
    family,
)


def _ff(n, t, horizon):
    """The recipe of a failure-free schedule."""
    spec = family("ff", "failure_free", horizon=horizon)
    return ScheduleRecipe(spec, n, t, 0)


def _case(index, algorithm="att2", workload="ff", n=3, t=1, horizon=8,
          proposals=None):
    return Case(
        index=index,
        algorithm=algorithm,
        workload=workload,
        recipe=_ff(n, t, horizon),
        proposals=tuple(proposals if proposals is not None else range(n)),
    )


def _small_batch():
    return [
        _case(0, algorithm="att2", workload="att2/ff"),
        _case(1, algorithm="floodset", workload="floodset/ff"),
        _case(2, algorithm="att2", workload="att2/ff9", horizon=9),
    ]


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _raw(cache):
    """A second connection to *cache*'s database, e.g. to damage it."""
    cache.entry_count()  # opens, and so creates, the database
    return closing(
        sqlite3.connect(cache.directory / DB_FILE, isolation_level=None)
    )


class TestSourceHash:
    def test_stable_and_memoized(self):
        clear_source_hash_cache()
        first = algorithm_source_hash("att2")
        assert first is not None and len(first) == 64
        assert algorithm_source_hash("att2") == first

    def test_distinct_per_algorithm(self):
        hashes = {
            algorithm_source_hash(name)
            for name in ("att2", "att2_optimized", "floodset", "adiamond_s")
        }
        assert len(hashes) == 4

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            algorithm_source_hash("nope")

    def test_fingerprint_covers_composed_dependencies(self):
        # att2 delegates to an underlying consensus (Chandra-Toueg by
        # default) and to suspicion-tracking helpers; editing either must
        # invalidate att2's entries, so both belong to its module closure.
        names = {
            module.__name__
            for module in registry._source_modules(
                registry._entries()["att2"]
            )
        }
        assert "repro.algorithms.chandra_toueg" in names
        assert "repro.algorithms.suspicion" in names
        assert "repro.algorithms.base" in names

    def test_subclass_fingerprint_covers_parent_module(self):
        names = {
            module.__name__
            for module in registry._source_modules(
                registry._entries()["att2_optimized"]
            )
        }
        assert "repro.core.att2" in names

    def test_runtime_fingerprint_covers_the_record_constructor(
        self, monkeypatch
    ):
        # Every cached record is built by analysis/sweep.py, so editing
        # it must invalidate every entry.
        from repro.engine import cache as cache_module

        roots = []
        monkeypatch.setattr(
            cache_module, "source_closure_hash",
            lambda modules: roots.extend(modules) or "hash",
        )
        assert cache_module._runtime_source_hash() == "hash"
        names = {
            module.__name__ for module in registry._module_closure(roots)
        }
        assert "repro.analysis.sweep" in names


def _fingerprinted_closures():
    """Every module closure a cache key fingerprints, by label."""
    from repro import workloads
    from repro.analysis import metrics, sweep
    from repro.sim import kernel

    closures = {
        name: registry._source_modules(info)
        for name, info in registry._entries().items()
    }
    closures["runtime"] = registry._module_closure([kernel, metrics, sweep])
    closures["generator"] = registry._module_closure(
        [grids_module, workloads]
    )
    return closures


def _getsource_digest(modules):
    """The closure hash as computed over ``inspect.getsource`` text: SHA-256
    over each module's name and the hex SHA-256 of its source."""
    digest = hashlib.sha256()
    for module in modules:
        source = hashlib.sha256(inspect.getsource(module).encode())
        digest.update(module.__name__.encode() + b"\x00")
        digest.update(source.hexdigest().encode() + b"\x00")
    return digest.hexdigest()


def _getmodule_closure(roots):
    """The repro-module closure of *roots*, walked with ``inspect.getmodule``
    as the registry once did."""
    seen = {}
    stack = list(roots)
    while stack:
        module = stack.pop()
        if module.__name__ in seen or not getattr(module, "__file__", None):
            continue
        seen[module.__name__] = module
        for value in vars(module).values():
            dep = inspect.getmodule(value)
            name = getattr(dep, "__name__", "")
            if name == "repro" or name.startswith("repro."):
                stack.append(dep)
    return sorted(seen)


def _getmodule_source_modules(info):
    """:func:`registry._source_modules` with ``inspect.getmodule`` roots."""
    roots = []
    owner = getattr(info.make, "__self__", None)
    for obj in (owner, info.make()):
        if obj is None:
            continue
        for entry in obj.__mro__ if isinstance(obj, type) else [obj]:
            module = inspect.getmodule(entry)
            if module is None or not getattr(module, "__file__", None):
                continue
            if module.__name__.partition(".")[0] in sys.stdlib_module_names:
                continue
            roots.append(module)
    return _getmodule_closure(roots)


class TestClosureWalk:
    """The closure walk reads ``sys.modules[value.__module__]``; it must
    find exactly the modules the ``inspect.getmodule`` walk finds."""

    def test_every_algorithm_closure_matches_the_getmodule_walk(self):
        for name, info in registry._entries().items():
            modules = registry._source_modules(info)
            assert [module.__name__ for module in modules] == (
                _getmodule_source_modules(info)
            ), name

    def test_runtime_and_generator_closures_match_the_getmodule_walk(self):
        from repro import workloads
        from repro.analysis import metrics, sweep
        from repro.sim import kernel

        for roots in ([kernel, metrics, sweep], [grids_module, workloads]):
            modules = registry._module_closure(roots)
            assert [module.__name__ for module in modules] == (
                _getmodule_closure(roots)
            )


class TestSourceText:
    """Fingerprints hash the text ``inspect.getsource`` returns, read
    without leaving it in ``linecache``."""

    def test_hashed_text_is_the_getsource_text(self):
        for label, modules in _fingerprinted_closures().items():
            assert modules, label
            for module in modules:
                assert module.__loader__.get_source(module.__name__) == (
                    inspect.getsource(module)
                ), module.__name__
            assert registry.source_closure_hash(modules) == (
                _getsource_digest(modules)
            ), label

    def test_hashing_adds_no_repro_file_to_linecache(self):
        closures = _fingerprinted_closures()
        package = os.path.dirname(repro.__file__)
        linecache.clearcache()
        clear_source_hash_cache()
        try:
            for modules in closures.values():
                assert registry.source_closure_hash(modules) is not None
            for name in closures:
                if name in registry._entries():
                    assert algorithm_source_hash(name) is not None
            cached = [
                path for path in linecache.cache if path.startswith(package)
            ]
        finally:
            clear_source_hash_cache()
        assert cached == []

    def test_unavailable_source_is_unfingerprintable(self, monkeypatch):
        # A digest memoized by an earlier test would stand in for the
        # source this test takes away.
        clear_source_hash_cache()

        class NoSource:
            @staticmethod
            def get_source(name):
                return None

        monkeypatch.setattr(registry, "__loader__", NoSource())
        assert registry.source_closure_hash([registry]) is None

        class Unreadable:
            @staticmethod
            def get_source(name):
                raise ImportError(name)

        monkeypatch.setattr(registry, "__loader__", Unreadable())
        assert registry.source_closure_hash([registry]) is None


class TestCaseKey:
    def test_key_is_content_addressed(self, cache):
        assert cache.case_key(_case(0)) == cache.case_key(
            _case(7, workload="other-label")
        )

    def test_key_varies_with_inputs(self, cache):
        base = cache.case_key(_case(0))
        assert cache.case_key(_case(0, algorithm="floodset")) != base
        assert cache.case_key(_case(0, horizon=9)) != base
        assert cache.case_key(_case(0, proposals=(9, 9, 9))) != base

    def test_every_registered_algorithm_is_cacheable(self, cache):
        # Every case names a registered algorithm, so every case has a
        # source fingerprint and therefore a key of its own.
        from repro.algorithms.registry import available_algorithms

        names = sorted(available_algorithms())
        keys = [cache.case_key(_case(0, algorithm=name)) for name in names]
        assert all(key is not None and len(key) == 64 for key in keys)
        assert len(set(keys)) == len(names)

    def test_non_primitive_proposals_are_uncacheable(self, cache):
        # Value is Any; a default object repr embeds a memory address, so
        # such proposals have no stable fingerprint and must never key.
        case = _case(0, proposals=(object(), 1, 2))
        assert cache.case_key(case) is None
        assert cache.case_key(_case(0, proposals=(0, "a", 1.5))) is not None


class TestHitMissPartitioning:
    def test_cold_then_warm(self, cache):
        cases = _small_batch()
        cold = run_cases(cases, cache=cache)
        assert (cache.hits, cache.misses) == (0, 3)
        assert cache.entry_count() == 3

        warm = run_cases(cases, cache=cache)
        assert (cache.hits, cache.misses) == (3, 3)
        assert warm == cold
        assert warm == run_cases(cases)  # cache changes nothing but time

    def test_hit_restamps_label_and_index(self, cache):
        run_cases([_case(0, workload="first-label")], cache=cache)
        (record,) = run_cases(
            [_case(5, workload="second-label")], cache=cache
        )
        assert cache.hits == 1
        assert record.workload == "second-label"
        assert record.case_index == 5

    def test_warm_run_executes_zero_cases(self, cache, monkeypatch):
        cases = _small_batch()
        cold = run_cases(cases, cache=cache)

        def boom(case):
            raise AssertionError(f"kernel executed case {case.index}")

        monkeypatch.setattr(executors_module, "execute_case", boom)
        assert run_cases(cases, cache=cache) == cold

    def test_partial_warmth_executes_only_misses(self, cache, monkeypatch):
        cases = _small_batch()
        run_cases(cases[:1], cache=cache)
        executed = []
        real = executors_module.execute_case
        monkeypatch.setattr(
            executors_module, "execute_case",
            lambda case: executed.append(case.index) or real(case),
        )
        run_cases(cases, cache=cache)
        assert executed == [1, 2]

    def test_sink_receives_hits_and_misses(self, cache, list_sink):
        cases = _small_batch()
        run_cases(cases[:2], cache=cache)
        assert run_cases(cases, cache=cache, sink=list_sink) == []
        assert (cache.hits, cache.misses) == (2, 3)
        assert sorted(r.case_index for r in list_sink.records) == [0, 1, 2]

    def test_identical_cases_in_one_batch_execute_once(
        self, cache, monkeypatch
    ):
        # Same (algorithm, schedule, proposals) under different labels:
        # one kernel execution serves all of them, re-stamped.
        cases = [
            _case(0, workload="baseline"),
            _case(1, workload="repeat-a"),
            _case(2, workload="repeat-b"),
        ]
        executed = []
        real = executors_module.run_case
        monkeypatch.setattr(
            executors_module, "run_case",
            lambda *args, **kwargs: (
                executed.append(args[0]) or real(*args, **kwargs)
            ),
        )
        records = run_cases(cases, cache=cache)
        assert executed == ["att2"]
        assert [r.workload for r in records] == [
            "baseline", "repeat-a", "repeat-b"
        ]
        assert [r.case_index for r in records] == [0, 1, 2]
        # Served-in-flight cases are dedup, not disk hits: a cold run
        # keeps its "0 hits" invariant (the CI lane greps for it).
        assert (cache.hits, cache.misses, cache.deduped) == (0, 1, 2)
        assert "2 deduped" in cache.describe()

class TestInvalidation:
    def test_source_change_invalidates_only_that_algorithm(
        self, cache, monkeypatch
    ):
        cases = _small_batch()
        run_cases(cases, cache=cache)
        # Simulate an edit to att2's implementation: its memoized source
        # fingerprint changes, floodset's does not.
        monkeypatch.setitem(
            registry._SOURCE_HASH_CACHE, "att2", "0" * 64
        )
        run_cases(cases, cache=cache)
        assert cache.hits == 1  # floodset only
        assert cache.misses == 3 + 2  # cold run + both att2 cases

    def test_editing_module_file_invalidates_entries(
        self, cache, tmp_path, monkeypatch
    ):
        """End-to-end: rewrite a registered algorithm's module on disk."""
        import importlib.util
        import sys

        source = (
            "from repro.core.att2 import ATt2\n"
            "_build = ATt2.factory()\n"
            "def factory(pid, n, t, proposal):\n"
            "    return _build(pid, n, t, proposal)\n"
            "def make():\n"
            "    return factory\n"
            "# revision: {rev}\n"
        )
        path = tmp_path / "fake_alg_mod.py"
        path.write_text(source.format(rev="A"))
        spec = importlib.util.spec_from_file_location("fake_alg_mod", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "fake_alg_mod", module)
        spec.loader.exec_module(module)

        entries = dict(registry._entries())
        entries["fake_alg"] = AlgorithmInfo(
            "fake_alg", "ES", module.make, "test-only wrapper around att2"
        )
        monkeypatch.setattr(registry, "_entries", lambda: entries)
        clear_source_hash_cache()

        cases = [_case(0, algorithm="fake_alg"), _case(1, algorithm="att2")]
        run_cases(cases, cache=cache)
        run_cases(cases, cache=cache)
        assert (cache.hits, cache.misses) == (2, 2)

        path.write_text(source.format(rev="B"))
        clear_source_hash_cache()
        run_cases(cases, cache=cache)
        # fake_alg missed (source changed), att2 still hit.
        assert (cache.hits, cache.misses) == (3, 3)
        clear_source_hash_cache()


class TestCorruptionRecovery:
    def test_corrupted_entry_is_a_miss_and_heals(self, cache):
        cases = _small_batch()
        cold = run_cases(cases, cache=cache)
        with _raw(cache) as db:
            db.execute(
                "UPDATE entries SET record = '{not json' WHERE key = ?",
                (cache.case_key(cases[0]),),
            )
        assert run_cases(cases, cache=cache) == cold
        assert cache.misses == 3 + 1
        run_cases(cases, cache=cache)
        assert cache.hits == 2 + 3  # healed: third run is all hits

    def test_store_failure_never_aborts_a_sweep(self, cache):
        # The cache costs only time: a failing store (read-only
        # directory, full disk) is counted, not raised.
        with _raw(cache) as db:
            db.execute(
                "CREATE TRIGGER refuse BEFORE INSERT ON entries "
                "BEGIN SELECT RAISE(ABORT, 'disk full'); END"
            )
        cases = _small_batch()
        records = run_cases(cases, cache=cache)
        assert records == run_cases(cases)
        assert cache.store_failures == 3
        assert cache.entry_count() == 0
        assert "3 store failures" in cache.describe()

    def test_version_or_key_skew_is_a_miss(self, cache):
        # A row written by another record version (an unknown field), or
        # one naming an algorithm other than its key's, is never served.
        first, second = _case(0), _case(1, algorithm="floodset")
        run_cases([first, second], cache=cache)
        with _raw(cache) as db:
            db.execute(
                "UPDATE entries SET record = json_set(record, '$.version', "
                "999) WHERE key = ?", (cache.case_key(first),),
            )
            db.execute(
                "UPDATE entries SET algorithm = 'att2' WHERE key = ?",
                (cache.case_key(second),),
            )
        run_cases([first, second], cache=cache)
        assert (cache.hits, cache.misses) == (0, 4)
        run_cases([first, second], cache=cache)
        assert cache.hits == 2  # both rows healed by the recompute


class TestDurability:
    def test_sigkilled_process_keeps_every_finished_store(self, tmp_path):
        # A sweep killed mid-run must leave every entry it finished, so
        # rerunning it (or its shard) warm-hits them.  The child kills
        # itself right after its third store, so no timer races it.
        import repro

        child = (
            "import os, signal, sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from test_cache import _small_batch\n"
            "from repro.engine import ResultCache, run_cases\n"
            "cases = _small_batch()\n"
            "cache = ResultCache(sys.argv[1])\n"
            "for case, record in zip(cases, run_cases(cases)):\n"
            "    cache.store(case, record)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        directory = tmp_path / "cache"
        proc = subprocess.run(
            [sys.executable, "-c", child, str(directory),
             str(Path(__file__).parent)],
            env=env, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        # The commits sit in the write-ahead log nobody checkpointed.
        assert (directory / f"{DB_FILE}-wal").exists()

        fresh = ResultCache(directory)
        cases = _small_batch()
        assert run_cases(cases, cache=fresh) == run_cases(cases)
        assert (fresh.hits, fresh.misses) == (3, 0)
        with _raw(fresh) as db:
            assert db.execute("PRAGMA integrity_check").fetchall() == [
                ("ok",)
            ]
        fresh.close()


class TestStats:
    def test_flush_accumulates_lifetime_counters(self, cache, tmp_path):
        cases = _small_batch()
        run_cases(cases, cache=cache)
        cache.flush_stats()
        warm = ResultCache(tmp_path / "cache")  # fresh session, same dir
        run_cases(cases, cache=warm)
        warm.flush_stats()

        stats = cache_stats(tmp_path / "cache")
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert (stats["hits"], stats["misses"]) == (3, 3)
        assert stats["sweeps"] == 2
        assert stats["hit_rate"] == 0.5

    def test_repeated_flush_never_double_counts(self, cache):
        # One long-lived cache object flushed after every sweep: each
        # flush folds only the activity since the previous one.
        cases = _small_batch()
        run_cases(cases, cache=cache)
        cache.flush_stats()
        run_cases(cases, cache=cache)
        cache.flush_stats()
        stats = cache_stats(cache.directory)
        assert (stats["hits"], stats["misses"]) == (3, 3)
        assert stats["sweeps"] == 2

    def test_counters_never_count_as_entries(self, cache):
        run_cases(_small_batch(), cache=cache)
        cache.flush_stats()
        assert cache.entry_count() == 3
        assert cache_stats(cache.directory)["entries"] == 3

    def test_flush_blocks_on_a_held_write_transaction_then_merges(
        self, cache
    ):
        # Two connections to one directory.  The first flusher pauses
        # inside its write transaction; the second must block on
        # SQLite's write lock, then add its delta on top of the first's
        # totals — no delta is lost to a read-modify-write race.
        other = ResultCache(cache.directory)
        cache.hits, cache.misses = 3, 1
        other.hits, other.misses = 0, 5
        inside = threading.Event()
        release = threading.Event()

        def pause(statement):
            if ("INSERT INTO stats" in statement
                    and threading.current_thread().name == "first-flusher"
                    and not inside.is_set()):
                inside.set()
                release.wait(10)

        with cache._lock:
            cache._connection().set_trace_callback(pause)
        first = threading.Thread(
            target=cache.flush_stats, name="first-flusher"
        )
        first.start()
        assert inside.wait(10)
        second = threading.Thread(target=other.flush_stats)
        second.start()
        second.join(0.3)
        assert second.is_alive(), "second flusher should block on the lock"
        release.set()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()

        stats = cache_stats(cache.directory)
        assert (stats["hits"], stats["misses"]) == (3, 6)
        assert stats["sweeps"] == 2
        # both flushers zeroed their session counters on success
        assert (cache.hits, other.misses) == (0, 0)
        assert (cache.store_failures, other.store_failures) == (0, 0)

    def test_concurrent_sessions_lose_no_store_and_no_count(self, cache):
        # More sessions than cores, each on its own connection, storing
        # distinct entries and flushing between stores under a short
        # switch interval: a lost write or counter update breaks the
        # totals.
        (record,) = run_cases([_case(0)])
        sessions, rounds = 6, 20

        def session(worker):
            mine = ResultCache(cache.directory)
            for i in range(rounds):
                case = _case(i, proposals=(worker, i, 0))
                mine.store(case, record)
                mine.misses += 1
                mine.flush_stats()
            mine.close()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=session, args=(worker,))
                for worker in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache_stats(cache.directory)
        assert stats["entries"] == sessions * rounds
        assert stats["misses"] == sessions * rounds
        assert stats["sweeps"] == sessions * rounds
        assert stats["store_failures"] == 0

    def test_sessions_opening_one_fresh_directory_lose_no_store(
        self, tmp_path
    ):
        # A connection switching a fresh database to WAL takes its write
        # lock while others have read the empty header; SQLite then
        # fails their own switch at once, without waiting.  A rival
        # connection holds that lock while several sessions open the
        # directory together, so each of them meets the race.
        (record,) = run_cases([_case(0)])
        directory = tmp_path / "cache"
        directory.mkdir()
        rival = sqlite3.connect(directory / DB_FILE, isolation_level=None)
        rival.execute("BEGIN IMMEDIATE")
        sessions = [ResultCache(directory) for _ in range(4)]
        threads = [
            threading.Thread(
                target=mine.store,
                args=(_case(0, proposals=(worker, 0, 0)), record),
            )
            for worker, mine in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        rival.execute("COMMIT")
        rival.close()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert [mine.store_failures for mine in sessions] == [0] * 4
        for mine in sessions:
            mine.close()
        assert cache_stats(directory)["entries"] == 4

    def test_open_switches_an_existing_database_to_wal(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        with closing(sqlite3.connect(directory / DB_FILE)) as db:
            assert db.execute("PRAGMA journal_mode").fetchone()[0] == "delete"
        cache = ResultCache(directory)
        assert cache.entry_count() == 0
        cache.close()
        with closing(sqlite3.connect(directory / DB_FILE)) as db:
            assert db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_open_reads_while_another_session_holds_the_write_lock(
        self, cache
    ):
        # A database already in WAL needs no switch, so a session opening
        # it reads while a writer holds its lock instead of waiting it out.
        run_cases(_small_batch(), cache=cache)
        cache.close()
        with _raw(cache) as rival:
            rival.execute("BEGIN IMMEDIATE")
            reader = ResultCache(cache.directory)
            assert reader.entry_count() == 3
            reader.close()
            rival.execute("COMMIT")

    def test_unswept_directory_reports_no_rate(self, cache):
        stats = cache_stats(cache.directory)
        assert stats["entries"] == 0
        assert stats["hit_rate"] is None

    def test_corrupt_counters_read_as_zeros(self, cache):
        run_cases(_small_batch(), cache=cache)
        cache.flush_stats()
        with _raw(cache) as db:
            db.execute("UPDATE stats SET value = 'garbage'")
            db.execute(
                "INSERT INTO stats (name, value) VALUES ('last_gc', '{no')"
            )
        stats = cache_stats(cache.directory)
        assert stats["entries"] == 3
        assert (stats["misses"], stats["sweeps"]) == (0, 0)
        assert stats["last_gc"] is None
        cache.flush_stats()  # heals: the next flush adds onto zero
        assert cache_stats(cache.directory)["sweeps"] == 1

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError, match="not a cache directory"):
            cache_stats(tmp_path / "absent")

    def test_stats_and_gc_on_an_empty_directory_create_nothing(
        self, tmp_path
    ):
        ResultCache(tmp_path / "cache")  # opened lazily: never used
        assert list((tmp_path / "cache").iterdir()) == []
        stats = cache_stats(tmp_path / "cache")
        assert (stats["entries"], stats["sweeps"]) == (0, 0)
        assert stats["last_gc"] is None
        summary = cache_gc(tmp_path / "cache", max_bytes=0, now=5.0)
        assert summary == {
            "at": 5.0, "removed": 0, "removed_bytes": 0,
            "remaining": 0, "remaining_bytes": 0,
        }
        assert list((tmp_path / "cache").iterdir()) == []

    def test_closed_cache_is_one_file(self, cache):
        cases = _small_batch()
        run_cases(cases, cache=cache)
        cache.flush_stats()
        cache.close()
        assert [p.name for p in cache.directory.iterdir()] == [DB_FILE]
        run_cases(cases, cache=cache)  # a closed cache reopens on use
        assert cache.hits == 3
        cache.close()


class TestColdWarmIdenticalJson:
    def test_parallel_cold_and_warm_byte_identical(self, cache):
        cases = [
            _case(i, algorithm=name, workload=f"{name}/ff{h}", horizon=h)
            for i, (name, h) in enumerate(
                (name, h)
                for name in ("att2", "floodset", "hurfin_raynal")
                for h in (8, 9, 10, 11)
            )
        ]
        uncached = run_batch(cases, executor=ProcessExecutor(4))
        cold = run_batch(cases, executor=ProcessExecutor(4), cache=cache)
        warm = run_batch(cases, executor=ProcessExecutor(4), cache=cache)
        assert cache.misses == len(cases)
        assert cache.hits == len(cases)
        assert cold.to_json() == uncached.to_json()
        assert warm.to_json() == cold.to_json()



class TestCacheGc:
    """Age- and size-bounded eviction (``repro cache gc``)."""

    def _filled(self, cache, used):
        """Store one entry per last-used time (oldest first); their keys."""
        keys = []
        for i, when in enumerate(used):
            case = _case(i, workload=f"gc-{i}", proposals=(i, i, i))
            run_cases([case], cache=cache)
            keys.append(cache.case_key(case))
        with _raw(cache) as db:
            db.executemany(
                "UPDATE entries SET used = ? WHERE key = ?",
                zip(used, keys),
            )
        return keys

    def _sizes(self, cache):
        """Key -> size of every stored entry."""
        with _raw(cache) as db:
            return dict(db.execute("SELECT key, size FROM entries"))

    def test_requires_at_least_one_bound(self, cache):
        with pytest.raises(ValueError, match="at least one bound"):
            cache_gc(cache.directory)

    def test_negative_bounds_rejected(self, cache):
        with pytest.raises(ValueError, match="max_age_days"):
            cache_gc(cache.directory, max_age_days=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            cache_gc(cache.directory, max_bytes=-5)

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError, match="not a cache directory"):
            cache_gc(tmp_path / "nope", max_bytes=0)

    def test_age_eviction(self, cache):
        now = 1_000_000.0
        day = 86400.0
        old, older, fresh = self._filled(
            cache, [now - 40 * day, now - 31 * day, now - 5 * day]
        )
        summary = cache_gc(cache.directory, max_age_days=30, now=now)
        assert summary["removed"] == 2
        assert set(self._sizes(cache)) == {fresh}
        assert summary["remaining"] == 1

    def test_lru_size_eviction_removes_oldest_first(self, cache):
        keys = self._filled(cache, [100.0, 200.0, 300.0])
        sizes = self._sizes(cache)
        # Bound that forces exactly the two oldest out.
        summary = cache_gc(
            cache.directory, max_bytes=sizes[keys[2]], now=1000.0
        )
        assert summary["removed"] == 2
        assert summary["removed_bytes"] == sizes[keys[0]] + sizes[keys[1]]
        assert set(self._sizes(cache)) == {keys[2]}
        assert summary["remaining_bytes"] == sizes[keys[2]]

    def test_max_bytes_zero_empties_the_cache(self, cache):
        self._filled(cache, [100.0, 200.0])
        summary = cache_gc(cache.directory, max_bytes=0, now=1000.0)
        assert summary["removed"] == 2
        assert cache_stats(cache.directory)["entries"] == 0

    def test_gc_preserves_lifetime_counters_and_is_reported(self, cache):
        self._filled(cache, [100.0, 200.0])
        cache.flush_stats()
        before = cache_stats(cache.directory)
        summary = cache_gc(cache.directory, max_bytes=0, now=1234.5)
        stats = cache_stats(cache.directory)
        # counters survive the gc, and the gc survives a counter flush
        assert stats["misses"] == before["misses"]
        assert stats["last_gc"] == summary
        assert stats["last_gc"]["at"] == 1234.5
        fresh = ResultCache(cache.directory)
        fresh.lookup(_case(9, proposals=(9, 9, 9)))  # a miss
        fresh.flush_stats()
        assert cache_stats(cache.directory)["last_gc"]["at"] == 1234.5

    def test_warm_hit_entry_survives_size_bounded_gc(self, cache):
        # The *older-stored* entry is served once, by a session that is
        # closed before the gc; the size-bounded gc must then evict the
        # colder (but newer-stored) entry instead.
        warm, cold = self._filled(cache, [100.0, 200.0])
        warm_case = _case(0, workload="gc-0", proposals=(0, 0, 0))
        fresh = ResultCache(cache.directory)
        assert fresh.lookup(warm_case) is not None
        fresh.close()  # writes the hit's recency
        with _raw(cache) as db:
            used = dict(db.execute("SELECT key, used FROM entries"))
        assert used[warm] > used[cold]
        summary = cache_gc(
            cache.directory,
            max_bytes=self._sizes(cache)[warm],
            now=time.time(),
        )
        assert summary["removed"] == 1
        assert set(self._sizes(cache)) == {warm}

    def test_recency_write_failure_on_hit_is_swallowed(self, cache):
        case = _case(0, workload="touchy", proposals=(2, 2, 2))
        (record,) = run_cases([case], cache=cache)
        with _raw(cache) as db:
            db.execute(
                "CREATE TRIGGER refuse BEFORE UPDATE ON entries "
                "BEGIN SELECT RAISE(ABORT, 'read-only share'); END"
            )
        fresh = ResultCache(cache.directory)
        assert fresh.lookup(case) == record
        assert fresh.hits == 1
        fresh.flush_stats()  # counted, never raised
        assert (fresh.hits, fresh.store_failures) == (1, 1)
        fresh.close()

    def test_gc_survivors_still_hit(self, cache):
        case = _case(0, workload="keeper", proposals=(7, 7, 7))
        (record,) = run_cases([case], cache=cache)
        cache_gc(cache.directory, max_age_days=365, now=time.time())
        fresh = ResultCache(cache.directory)
        assert fresh.lookup(case) == record
        assert fresh.hits == 1

    def test_gc_never_touches_foreign_files(self, cache):
        # `cache gc` is destructive, but only inside its database: a
        # mistyped directory's files — and the entries and counters of
        # an old one-file-per-entry cache — come through untouched.
        root = cache.directory
        (root / "ui").mkdir()
        bystander = root / "ui" / "theme.json"
        bystander.write_text('{"color": "blue"}', encoding="utf-8")
        old_entry = root / "ab" / ("ab" + "c" * 62 + ".json")
        old_entry.parent.mkdir()
        old_entry.write_text("{}", encoding="utf-8")
        old_stats = root / "stats.json"
        old_stats.write_text('{"sweeps": 4}', encoding="utf-8")
        self._filled(cache, [100.0])
        summary = cache_gc(cache.directory, max_bytes=0, now=1000.0)
        assert summary["removed"] == 1  # only the genuine entry
        assert bystander.exists()
        assert old_entry.exists()
        assert old_stats.exists()
        assert cache_stats(cache.directory)["entries"] == 0

    def test_gc_returns_the_freed_pages_to_the_file(self, cache):
        run_cases(_chunky_batch(), cache=cache)
        cache.close()
        path = cache.directory / DB_FILE
        before = path.stat().st_size
        assert cache_gc(cache.directory, max_bytes=0)["remaining"] == 0
        assert path.stat().st_size < before
        with _raw(cache) as db:
            assert db.execute("PRAGMA integrity_check").fetchall() == [
                ("ok",)
            ]
        # The vacuumed database still stores, then hits.
        fresh = ResultCache(cache.directory)
        (record,) = run_cases([_case(0)], cache=fresh)
        assert run_cases([_case(1)], cache=fresh) == [
            replace(record, case_index=1)
        ]
        assert (fresh.hits, fresh.misses) == (1, 1)
        fresh.close()

    def test_gc_drops_a_leftover_digests_table(self, cache):
        self._filled(cache, [100.0])
        with _raw(cache) as db:
            db.execute(
                "CREATE TABLE digests (recipe TEXT PRIMARY KEY, digest TEXT "
                "NOT NULL) WITHOUT ROWID"
            )
        cache.close()
        cache_gc(cache.directory, max_age_days=365, now=1000.0)
        with _raw(cache) as db:
            tables = db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
        assert sorted(tables) == [("entries",), ("stats",)]
        assert cache_stats(cache.directory)["entries"] == 1

    def test_gc_stands_when_another_writer_blocks_the_vacuum(
        self, cache, monkeypatch
    ):
        from repro.engine import cache as cache_module

        self._filled(cache, [100.0, 200.0])
        cache.close()
        blocker = sqlite3.connect(
            cache.directory / DB_FILE, isolation_level=None
        )
        real_connect = cache_module._connect

        def connect(path):
            # Another sweep takes the write lock just as the VACUUM starts.
            db = real_connect(path)
            db.set_trace_callback(
                lambda sql: sql == "VACUUM"
                and blocker.execute("BEGIN IMMEDIATE")
            )
            return db

        monkeypatch.setattr(cache_module, "BUSY_TIMEOUT_S", 0.05)
        monkeypatch.setattr(cache_module, "_connect", connect)
        with closing(blocker):
            summary = cache_gc(cache.directory, max_bytes=0, now=1000.0)
            assert blocker.in_transaction
            blocker.execute("ROLLBACK")
        monkeypatch.undo()
        assert summary["removed"] == 2
        assert cache_stats(cache.directory)["entries"] == 0


def _chunky_batch(count=600):
    """*count* cheap cases over ~210 content keys (many repeated keys)."""
    recipes = [_ff(3, 1, h) for h in (6, 7, 8)]
    return [
        Case(
            index=i,
            algorithm=("att2", "floodset")[i % 2],
            workload=f"w{i}",
            recipe=recipes[i % 3],
            proposals=(i % 5, (i // 5) % 7, 1),
        )
        for i in range(count)
    ]


def _per_key_partition(cache, cases):
    """The partition loop read one key at a time: (hits, misses, deduped)."""
    seen = set()
    deduped = 0
    for case in cases:
        key = cache.case_key(case)
        if key is not None and key in seen:
            deduped += 1
            continue
        if cache.lookup(case, key) is None and key is not None:
            seen.add(key)
    return cache.hits, cache.misses, deduped


class TestChunkedReads:
    def test_counters_equal_the_per_key_path(self, cache, tmp_path):
        import shutil

        cases = _chunky_batch()
        assert len(cases) > 2 * READ_CHUNK
        run_cases(cases[::3], cache=cache)  # warm about a third
        cache.close()
        shutil.copytree(cache.directory, tmp_path / "copy")

        chunked = ResultCache(cache.directory)
        records = run_cases(cases, cache=chunked)
        assert records == run_cases(cases)
        expected = _per_key_partition(ResultCache(tmp_path / "copy"), cases)
        assert (chunked.hits, chunked.misses, chunked.deduped) == expected
        assert chunked.hits and chunked.misses and chunked.deduped

    def test_one_query_per_chunk(self, cache, monkeypatch):
        cases = _chunky_batch()
        run_cases(cases, cache=cache)
        reads = []
        real = ResultCache.read_rows

        def counting(self, keys):
            keys = list(keys)
            reads.append(len(keys))
            return real(self, keys)

        monkeypatch.setattr(ResultCache, "read_rows", counting)
        run_cases(cases, cache=cache)
        assert len(reads) == -(-len(cases) // READ_CHUNK)
        assert all(0 < size <= READ_CHUNK for size in reads)

    def test_hits_are_emitted_before_the_next_chunk_is_read(
        self, cache, monkeypatch, list_sink
    ):
        cases = _chunky_batch()
        run_cases(cases, cache=cache)
        emitted_before_read = []
        real = ResultCache.read_rows

        def watching(self, keys):
            emitted_before_read.append(len(list_sink.records))
            return real(self, keys)

        monkeypatch.setattr(ResultCache, "read_rows", watching)
        run_cases(cases, cache=cache, sink=list_sink)
        assert emitted_before_read == [0, READ_CHUNK, 2 * READ_CHUNK]

    def test_corrupt_rows_mid_chunk_miss_and_heal(self, cache):
        cases = _chunky_batch(2 * READ_CHUNK)
        cold = run_cases(cases, cache=cache)
        corrupt, foreign = cases[100], cases[READ_CHUNK + 57]
        with _raw(cache) as db:
            db.execute(
                "UPDATE entries SET record = '{not json' WHERE key = ?",
                (cache.case_key(corrupt),),
            )
            db.execute(
                "UPDATE entries SET algorithm = 'hurfin_raynal' WHERE key = ?",
                (cache.case_key(foreign),),
            )
        misses = cache.misses
        assert run_cases(cases, cache=cache) == cold
        # Each damaged key misses once; its repeats in the batch dedup.
        assert cache.misses - misses == 2
        hits = cache.hits
        assert run_cases(cases, cache=cache) == cold
        assert (cache.hits - hits, cache.misses - misses) == (len(cases), 2)

    def test_sqlite_error_in_a_chunk_read_is_misses(self, cache, monkeypatch):
        # Every case its own key, so each chunk reads keys of its own.
        cases = [
            replace(case, proposals=(case.index, 0, 1))
            for case in _chunky_batch()
        ]
        cold = run_cases(cases, cache=cache)
        real_connection = cache._connection
        reads = []

        class FailingSecondRead:
            def __init__(self, db):
                self.db = db

            def execute(self, sql, *args):
                if sql.startswith("SELECT key, algorithm, record"):
                    reads.append(sql)
                    if len(reads) == 2:
                        raise sqlite3.OperationalError("disk I/O error")
                return self.db.execute(sql, *args)

        monkeypatch.setattr(
            cache, "_connection", lambda: FailingSecondRead(real_connection())
        )
        hits, misses = cache.hits, cache.misses
        assert run_cases(cases, cache=cache) == cold
        assert len(reads) == 3
        # The second chunk's read failed, so its cases missed and ran
        # again; the first and third chunks were served from the database.
        assert cache.misses - misses == READ_CHUNK
        assert cache.hits - hits == len(cases) - READ_CHUNK
        assert cache.store_failures == 0


#: One family of every kind, with params valid at every tested size.
_EVERY_KIND = (
    ("es", "random_es", {}),
    ("scs", "random_scs", {}),
    ("serial", "random_serial", {}),
    ("ff", "failure_free", {}),
    ("cascade", "cascade", {}),
    ("chain", "hiding_chain", {}),
    ("block", "block", {}),
    ("killer", "killer", {"rounds_per_cycle": 2}),
    ("async", "async_prefix", {"k": 2}),
    ("rotating", "rotating", {"async_rounds": 2}),
)


def _every_kind_grid(n, t):
    horizon = max(12, 3 * t + 6)
    return GridSpec(
        n=n, t=t, algorithms=("att2", "floodset"),
        families=tuple(
            family(name, kind, count=2 if kind in SEEDED_KINDS else 1,
                   horizon=horizon, **params)
            for name, kind, params in _EVERY_KIND
        ),
        seed=5,
    )


def _recipe_grid():
    """10 cases over 5 instances."""
    return GridSpec(
        n=4, t=1, algorithms=("att2", "floodset"),
        families=(family("es", "random_es", count=3),
                  family("ff", "failure_free"),
                  family("killer", "killer", rounds_per_cycle=2)),
        seed=2,
    )


class TestRecipeKeys:
    """A grid case is keyed by its recipe: no schedule is built to key it."""

    @pytest.mark.parametrize("n, t", [(4, 1), (9, 4), (25, 8)])
    def test_pooled_cold_and_warm_exports_equal_the_uncached_serial_one(
        self, cache, n, t
    ):
        grid = _every_kind_grid(n, t)
        uncached = run_batch(grid, executor=SerialExecutor()).to_json()
        pool = ProcessExecutor(workers=2)
        cold = run_batch(grid, executor=pool, cache=cache)
        assert (cache.hits, cache.misses) == (0, grid.case_count)
        warm = run_batch(grid, executor=pool, cache=cache)
        assert cache.hits == grid.case_count
        assert cold.to_json() == warm.to_json() == uncached

    def test_keys_hash_the_recipe(self, cache, built_schedules):
        cases = expand_grid(_recipe_grid())
        keys = [cache.case_key(case) for case in cases]
        assert built_schedules == []
        assert len(set(keys)) == 10
        # An equal recipe built apart from the grid keys the same.
        first = cases[0].recipe
        copy = ScheduleRecipe(first.family, first.n, first.t, first.seed)
        assert cache.case_key(replace(cases[0], recipe=copy)) == keys[0]

    def test_changed_generator_source_recomputes_every_case(
        self, cache, monkeypatch
    ):
        grid = _recipe_grid()
        cold = run_batch(grid, cache=cache)
        cache.flush_stats()
        monkeypatch.setattr(
            grids_module, "generator_source_hash", lambda: "edited"
        )
        warm = ResultCache(cache.directory)
        again = run_batch(grid, cache=warm)
        assert again.to_json() == cold.to_json()
        assert (warm.hits, warm.misses) == (0, 10)

    def test_unkeyed_recipe_is_uncacheable(self, cache, monkeypatch):
        monkeypatch.setattr(grids_module, "generator_source_hash", lambda: None)
        grid = _recipe_grid()
        assert all(cache.case_key(case) is None for case in expand_grid(grid))
        cached = run_batch(grid, cache=cache)
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.entry_count() == 0
        assert cached.to_json() == run_batch(grid).to_json()

    def test_warm_rerun_builds_nothing_cold_run_builds_each_once(
        self, cache, built_schedules
    ):
        grid = _recipe_grid()
        cold = run_batch(grid, cache=cache)
        assert len(built_schedules) == 5 == len(set(built_schedules))
        cache.flush_stats()
        cache.close()
        built_schedules.clear()
        warm = ResultCache(cache.directory)
        assert run_batch(grid, cache=warm).to_json() == cold.to_json()
        assert (warm.hits, warm.misses) == (10, 0)
        assert built_schedules == []

    def test_shard_builds_only_its_slice(
        self, tmp_path, built_schedules, capsys
    ):
        grid = default_sweep_grid(
            5, 2, seed=3, algorithms=("att2",), cases_per_family=4
        )
        wanted = sorted(
            (5, case.recipe.family.name, case.recipe.seed)
            for case in ShardSpec(1, 2).select(expand_grid(grid))
        )
        for cache_args in ([], ["--cache", str(tmp_path / "cache")]):
            built_schedules.clear()
            assert main([
                "sweep", "--n", "5", "--t", "2", "--cases-per-family", "4",
                "--algorithms", "att2", "--seed", "3", "--backend", "serial",
                "--shard", "1/2", *cache_args,
            ]) == 0
            assert sorted(built_schedules) == wanted
        assert len(wanted) < sum(fam.count for fam in grid.families)
        capsys.readouterr()

    def test_leftover_digests_table_opens_and_serves(self, cache):
        # Older caches kept a ``digests`` table in the same file.
        grid = _recipe_grid()
        cold = run_batch(grid, cache=cache)
        cache.close()
        with _raw(cache) as db:
            db.execute(
                "CREATE TABLE digests (recipe TEXT PRIMARY KEY, digest TEXT "
                "NOT NULL) WITHOUT ROWID"
            )
            db.execute("INSERT INTO digests VALUES ('recipe', 'digest')")
        warm = ResultCache(cache.directory)
        assert run_batch(grid, cache=warm).to_json() == cold.to_json()
        assert (warm.hits, warm.misses) == (10, 0)
        warm.flush_stats()
        warm.close()
        assert warm.store_failures == 0
        cache_gc(cache.directory, max_age_days=365, now=time.time())
        assert cache_stats(cache.directory)["entries"] == 10

    def test_two_processes_lose_no_store(self, tmp_path):
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        directory = tmp_path / "cache"
        grid_args = ["--n", "5", "--t", "2", "--cases-per-family", "6"]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "sweep", *grid_args,
                 "--seed", str(seed), "--backend", "serial",
                 "--cache", str(directory)],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for seed in (11, 12)
        ]
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        misses = 0
        for out in outs:
            found = re.search(r"^cache: 0 hits, (\d+) misses \(", out, re.M)
            assert found, out
            misses += int(found.group(1))
        stats = cache_stats(directory)
        assert stats["entries"] == misses
        assert stats["store_failures"] == 0

    def test_gc_leaves_a_consistent_database(self, cache, built_schedules):
        grid = _recipe_grid()
        cold = run_batch(grid, cache=cache)
        cache.flush_stats()
        cache_gc(cache.directory, max_age_days=365, now=time.time())
        with _raw(cache) as db:
            assert db.execute("PRAGMA integrity_check").fetchall() == [
                ("ok",)
            ]
        built_schedules.clear()
        warm = ResultCache(cache.directory)
        assert run_batch(grid, cache=warm).to_json() == cold.to_json()
        assert (warm.hits, len(built_schedules)) == (10, 0)
