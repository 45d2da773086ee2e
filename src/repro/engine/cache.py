"""Content-addressed on-disk cache for batch-engine sweep records.

Every case the engine executes is a pure function of *what code ran
against what input*: the record is fully determined by (algorithm
implementation, adversary schedule, proposals).  The cache therefore keys
each :class:`~repro.analysis.sweep.SweepRecord` by SHA-256 over

* the key-scheme version tag (``repro-sweep-cache-v1``),
* the algorithm's registry name,
* :func:`repro.algorithms.registry.algorithm_source_hash` — a content
  hash of the algorithm's transitive module closure (its own module, MRO
  bases, composed underlying consensus, shared helpers), so editing an
  algorithm's source invalidates that algorithm's entries and its
  dependents', and nothing else,
* a runtime fingerprint — the source closure of the simulation kernel and
  the metric/record machinery (:mod:`repro.sim.kernel`,
  :mod:`repro.analysis.metrics`, :mod:`repro.analysis.sweep` and
  everything they import), so editing how records are *produced*
  invalidates everything,
* the schedule's identity, and
* the proposals tuple.

Each source fingerprint is SHA-256 over per-module digests: every
module's source is hashed once per process, and a closure's
fingerprint hashes its (module name, source digest) pairs
(:func:`~repro.algorithms.registry.source_closure_hash`).  All hashing
goes through :func:`repro.fingerprint.sha256`, CPython's builtin
SHA-256, so a sweep never loads OpenSSL.

A case's schedule is named by a
:class:`~repro.engine.grids.ScheduleRecipe`, and its identity is the
recipe key (:meth:`~repro.engine.grids.ScheduleRecipe.key`): SHA-256
over a scheme tag (``repro-schedule-recipe-v1``), the source closure of
the generator code (:mod:`repro.engine.grids` and :mod:`repro.workloads`,
which :func:`~repro.engine.grids.build_schedule` imports when it runs),
and the family kind, params, horizon, n, t and seed, of which a
generator is a pure function.  So a case is keyed without building its
schedule: a warm sweep builds none, and a cold one builds each only in
the process that runs it.  Editing the generator code changes every
recipe key, so records are recomputed after such an edit; a recipe
without a key (generator source unavailable) makes its case
uncacheable.

Workload labels and case indices are *not* part of the key: two cases
that run the same code on the same inputs share one entry, and
:meth:`ResultCache.lookup` re-stamps ``workload`` and ``case_index`` from
the requesting case so a warm run is byte-identical to a cold one.

The store is one SQLite database, ``directory/cache.sqlite3``: one
``entries`` row per key (the algorithm, the record as key-sorted JSON
from :func:`repro.engine.sink.record_to_line`, its size and its
last-used time), and a ``stats`` table of lifetime counters and the last
gc summary.  Each store commits before it returns (WAL journal,
``synchronous=NORMAL``), so a killed process keeps every entry it
finished and concurrent sweeps can share a directory.  Hits only read,
a chunk of keys per query (:meth:`ResultCache.read_rows`), and their
last-used times are written in one transaction by
:meth:`ResultCache.flush_stats` or :meth:`ResultCache.close`; a killed
sweep loses only those.  Closing the last connection leaves the
directory one database file.  Tables of older schemas (such as a
``digests`` table) are never read, and :func:`cache_gc` drops them.

Every failure costs only time: a corrupted or shape-skewed row is a
miss (the next store overwrites the row), a ``sqlite3`` error on a read
makes every key of that read a miss, and an error on store, flush or
close is counted in ``store_failures``.
Deleting a cache directory is always safe; directories of the old
one-JSON-file-per-entry layout are neither read nor migrated.
:func:`cache_gc` (CLI: ``repro cache gc``) evicts entries by age and/or
an LRU size bound.

Uncacheable cases (algorithms or schedule generators whose source is
unavailable, or proposals without a canonical ``repr``) are passed
through to the kernel untouched and counted in neither ``hits`` nor
``misses``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import closing, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, cast

from repro.algorithms.registry import (
    algorithm_source_hash,
    source_closure_hash,
)
from repro.analysis.sweep import SweepRecord
from repro.engine.cases import Case
from repro.engine.sink import record_to_line
from repro.fingerprint import sha256

if TYPE_CHECKING:  # sqlite3 is imported only when a cache is opened
    import sqlite3

#: The database file inside a cache directory.
DB_FILE = "cache.sqlite3"

#: Seconds a write waits for another connection's write transaction.
BUSY_TIMEOUT_S = 60.0

#: Page-cache bound per connection, in KiB: hits are keyed reads.
PAGE_CACHE_KIB = 256

#: Most keys one :meth:`ResultCache.read_rows` call reads, so a batch
#: read holds one chunk of cached rows and stays under SQLite's
#: bound-parameter limit on every supported version.
READ_CHUNK = 256

#: Counters accumulated in the ``stats`` table.
_STAT_KEYS = ("hits", "misses", "deduped", "store_failures", "sweeps")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, algorithm TEXT
    NOT NULL, record TEXT NOT NULL, size INTEGER NOT NULL, used REAL NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS stats (name TEXT PRIMARY KEY, value) WITHOUT ROWID;
"""

#: Add a delta to a counter; a corrupt (non-counter) value counts as 0.
_ADD_COUNTER = """
INSERT INTO stats (name, value) VALUES (?, ?)
ON CONFLICT (name) DO UPDATE SET value = excluded.value + (
    CASE WHEN typeof(value) = 'integer' AND value >= 0 THEN value ELSE 0 END
)
"""

_TOTALS = "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"

#: Evict least recently used entries until at most ``?`` bytes remain:
#: an entry survives iff it and every more recently used one fit.
_EVICT_LRU = """
DELETE FROM entries WHERE key IN (
    SELECT key FROM (
        SELECT key, SUM(size) OVER (ORDER BY used DESC, key DESC) AS kept
        FROM entries
    ) WHERE kept > ?
)
"""


def _use_wal(db: "sqlite3.Connection") -> None:
    """Switch *db*'s database to WAL unless it already is.

    Connections that open one fresh database together race to switch
    it.  SQLite fails a loser's switch at once with "database is
    locked", without waiting out the busy timeout, so a loser reads the
    mode again (finding the winner's switch) until the timeout ends.
    """
    import sqlite3

    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            if db.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
                db.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
        time.sleep(0.001)


def _connect(path: Path) -> "sqlite3.Connection":
    """An autocommit, any-thread connection to *path*, schema ensured."""
    import sqlite3

    db = sqlite3.connect(
        path, timeout=BUSY_TIMEOUT_S, isolation_level=None,
        check_same_thread=False,
    )
    try:
        _use_wal(db)
        db.execute("PRAGMA synchronous = NORMAL")
        db.execute(f"PRAGMA cache_size = -{PAGE_CACHE_KIB}")
        db.executescript(_SCHEMA)
    except sqlite3.Error:
        db.close()
        raise
    return db


@contextmanager
def _existing_db(
    directory: str | os.PathLike,
) -> Iterator["sqlite3.Connection | None"]:
    """*directory*'s database for one command, ``None`` when it has none.

    Creates nothing.  Raises ``OSError`` when *directory* is not a
    directory or its database is unreadable.
    """
    import sqlite3

    root = Path(directory)
    if not root.is_dir():
        raise OSError(f"not a cache directory: {directory}")
    path = root / DB_FILE
    if not path.is_file():
        yield None
        return
    try:
        with closing(_connect(path)) as db:
            yield db
    except sqlite3.Error as exc:
        raise OSError(f"unreadable cache database {path}: {exc}") from exc


def _read_stats(db: "sqlite3.Connection | None") -> dict:
    """The lifetime counters and ``last_gc`` (corrupt values unset)."""
    totals: dict = dict.fromkeys(_STAT_KEYS, 0)
    totals["last_gc"] = None
    rows = db.execute("SELECT name, value FROM stats") if db else ()
    for name, value in rows:
        if name == "last_gc":
            try:
                last_gc = json.loads(value)
            except (TypeError, ValueError):
                continue
            if isinstance(last_gc, dict):
                totals["last_gc"] = last_gc
        elif name in _STAT_KEYS and isinstance(value, int) and value >= 0:
            totals[name] = value
    return totals


def cache_stats(directory: str | os.PathLike) -> dict:
    """Inspect a cache directory without constructing a live cache.

    Returns entry count, total entry bytes, the lifetime counters folded
    in by :meth:`ResultCache.flush_stats`, the ``last_gc`` summary, and
    the derived hit rate (``None`` when no lookups were ever recorded).
    A directory without a database reads as empty and stays untouched.
    Raises ``OSError`` when *directory* is not a directory or its
    database is unreadable.
    """
    with _existing_db(directory) as db:
        stats = _read_stats(db)
        entries, total_bytes = db.execute(_TOTALS).fetchone() if db else (0, 0)
    lookups = stats["hits"] + stats["misses"]
    stats.update(
        entries=entries,
        total_bytes=total_bytes,
        hit_rate=stats["hits"] / lookups if lookups else None,
    )
    return stats


def cache_gc(
    directory: str | os.PathLike,
    *,
    max_age_days: float | None = None,
    max_bytes: int | None = None,
    now: float | None = None,
) -> dict:
    """Evict cache entries by age and/or total size (LRU by last use).

    ``max_age_days`` removes entries last used longer ago than that;
    then ``max_bytes`` removes the least recently used entries until at
    most that many bytes remain.  At least one bound must be given.  An
    entry is used when stored *or served* (a hit is recorded when its
    cache flushes or closes), so hot entries of a shared cache outlive
    cold ones, and every entry is recomputable, so eviction is safe.

    The gc is one write transaction that also stores its summary as
    ``last_gc`` for ``repro cache stats`` and drops the ``digests``
    table older caches left.  A ``VACUUM`` then returns the freed pages
    to the file system; when another sweep holds the database so that
    it cannot run, the file keeps its size until a later gc, and the
    gc still succeeds, its deletions committed.
    Returns the summary: ``removed`` / ``removed_bytes`` / ``remaining``
    / ``remaining_bytes`` / ``at`` (epoch seconds); all zeros, with
    nothing written, for a directory without a database.  Raises
    ``ValueError`` for a missing or negative bound and ``OSError`` when
    *directory* is not a directory or its database is unreadable.
    """
    import sqlite3

    if max_age_days is None and max_bytes is None:
        raise ValueError(
            "cache_gc needs at least one bound: max_age_days or max_bytes"
        )
    if max_age_days is not None and max_age_days < 0:
        raise ValueError(f"max_age_days must be >= 0, got {max_age_days}")
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    if now is None:
        now = time.time()
    summary = {
        "at": now, "removed": 0, "removed_bytes": 0,
        "remaining": 0, "remaining_bytes": 0,
    }
    with _existing_db(directory) as db:
        if db is None:
            return summary
        with db:
            db.execute("BEGIN IMMEDIATE")
            entries, total_bytes = db.execute(_TOTALS).fetchone()
            if max_age_days is not None:
                db.execute(
                    "DELETE FROM entries WHERE used < ?",
                    (now - max_age_days * 86400.0,),
                )
            if max_bytes is not None:
                db.execute(_EVICT_LRU, (max_bytes,))
            remaining, remaining_bytes = db.execute(_TOTALS).fetchone()
            summary.update(
                removed=entries - remaining,
                removed_bytes=total_bytes - remaining_bytes,
                remaining=remaining,
                remaining_bytes=remaining_bytes,
            )
            db.execute(
                "INSERT OR REPLACE INTO stats (name, value) "
                "VALUES ('last_gc', ?)",
                (json.dumps(summary, sort_keys=True),),
            )
            db.execute("DROP TABLE IF EXISTS digests")
        try:
            db.execute("VACUUM")
        except sqlite3.OperationalError:
            pass  # the database is busy; the deletions stand
    return summary

#: Key-scheme tag mixed into every key; bumped whenever key semantics change.
KEY_SCHEME = "repro-sweep-cache-v1"

#: Proposal types with stable, canonical ``repr`` across runs and machines.
#: Anything else (objects with address-bearing default reprs, containers
#: with unordered iteration) has no reliable fingerprint → uncacheable.
_KEYABLE_PROPOSAL_TYPES = (int, str, float)

_MISSING = object()


def _runtime_source_hash() -> str | None:
    """Fingerprint of the record-producing machinery every entry depends on.

    Covers the simulation kernel, the consensus-property checkers and the
    record constructor — plus everything in their import closure (traces,
    messages, schedules, …) — so a behavioral change anywhere between
    "case in" and "record out" invalidates the whole cache.
    """
    from repro.analysis import metrics, sweep
    from repro.sim import kernel

    return source_closure_hash([kernel, metrics, sweep])


def _decode(row: tuple[str, str] | None, case: Case) -> SweepRecord | None:
    """*row*'s record re-stamped for *case*; ``None`` if absent or unusable.

    A row naming another algorithm, corrupted JSON or a record of another
    shape all read as ``None`` (a miss), never as an error.
    """
    if row is None or row[0] != case.algorithm:
        return None
    try:
        data = json.loads(row[1])
        data.update(workload=case.workload, case_index=case.index)
        return SweepRecord(**data)
    except (ValueError, TypeError, AttributeError):
        return None


class ResultCache:
    """A content-addressed cache mapping case keys to sweep records.

    The database is opened on first use and may be used from any thread.
    Call :meth:`close` when done (the CLI does after every sweep), so an
    idle directory is one consistent file; a closed cache reopens on its
    next use.

    Attributes:
        directory: root of the on-disk store (created on construction).
        hits: lookups answered from the store since construction.
        misses: lookups for cacheable cases that were not in the store.
        deduped: cases served in-flight from another case in the same
            batch that shares their content key (no disk lookup involved;
            counted by the runner).
        store_failures: stores and flushes that failed since the last
            successful flush.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.deduped = 0
        self.store_failures = 0
        self._runtime_hash = _runtime_source_hash()
        self._lock = threading.Lock()
        self._db: "sqlite3.Connection | None" = None
        self._served: set[str] = set()  # hit keys whose recency is unwritten

    def _connection(self) -> "sqlite3.Connection":
        """The open connection, opened on first use (call under the lock)."""
        if self._db is None:
            self._db = _connect(self.directory / DB_FILE)
        return self._db

    # -- keys --------------------------------------------------------------

    def case_key(self, case: Case) -> str | None:
        """The content key for *case*, or ``None`` if it is uncacheable.

        A case's schedule is identified by its recipe key, so no
        schedule is built here; a recipe without a key is uncacheable.
        Proposals outside the canonically-``repr``-able types are never
        cached (``Value`` is ``Any``; a default object repr embeds a
        memory address, which would at best never hit and at worst
        collide).
        """
        if self._runtime_hash is None:
            return None
        if not all(
            value is None or isinstance(value, _KEYABLE_PROPOSAL_TYPES)
            for value in case.proposals
        ):
            return None
        source = algorithm_source_hash(case.algorithm)
        if source is None:
            return None
        schedule = case.recipe.key()
        if schedule is None:
            return None
        payload = "\n".join((
            KEY_SCHEME,
            case.algorithm,
            source,
            self._runtime_hash,
            schedule,
            repr(tuple(case.proposals)),
        ))
        return sha256(payload.encode()).hexdigest()

    # -- lookup / store ----------------------------------------------------

    def read_rows(self, keys: Iterable[str]) -> dict[str, tuple[str, str]]:
        """The stored ``(algorithm, record)`` rows of *keys*, in one read.

        One ``SELECT … WHERE key IN (…)`` for at most :data:`READ_CHUNK`
        keys (the runner's partition loop reads a chunk of cases at a
        time; :meth:`lookup` reads one key).  Absent keys have no
        row, and a database error reads as no rows at all, so every key
        of the chunk misses: the cache costs only time.
        """
        import sqlite3

        wanted = list(keys)
        if not wanted:
            return {}
        query = (
            "SELECT key, algorithm, record FROM entries WHERE key IN "
            f"({', '.join('?' * len(wanted))})"
        )
        try:
            with self._lock:
                rows = self._connection().execute(query, wanted)
                return {key: (algorithm, line) for key, algorithm, line in rows}
        except sqlite3.Error:
            return {}

    def lookup(
        self,
        case: Case,
        key: "str | None | object" = _MISSING,
        rows: Mapping[str, tuple[str, str]] | None = None,
    ) -> SweepRecord | None:
        """The cached record for *case*, re-stamped with its label and index.

        Returns ``None`` — and counts a miss — when the entry is absent or
        unreadable (corrupted JSON, a record of another shape, a row
        naming another algorithm, a database error).  Uncacheable cases
        return ``None`` without touching the counters.  Callers that
        already derived the case's key pass it to skip recomputation, and
        callers that already read its chunk with :meth:`read_rows` (the
        runner's partition loop) pass those *rows*; otherwise the one row
        is read here.
        """
        key = self.case_key(case) if key is _MISSING else cast(
            "str | None", key
        )
        if key is None:
            return None
        if rows is None:
            rows = self.read_rows((key,))
        record = _decode(rows.get(key), case)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        self._served.add(key)
        return record

    def store(
        self,
        case: Case,
        record: SweepRecord,
        key: "str | None | object" = _MISSING,
    ) -> None:
        """Persist *record* under *case*'s key (no-op when uncacheable).

        The entry is committed before this returns.  Write failures
        (read-only directory, full disk, an unreadable database) are
        swallowed and counted in ``store_failures``: the cache's contract
        is to cost only time, never to abort a sweep whose compute
        already happened.  A pre-derived *key* may be passed to skip
        recomputation.
        """
        import sqlite3

        key = self.case_key(case) if key is _MISSING else cast(
            "str | None", key
        )
        if key is None:
            return
        line = record_to_line(record)
        try:
            with self._lock:
                self._connection().execute(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?)",
                    (key, case.algorithm, line, len(line), time.time()),
                )
        except sqlite3.Error:
            self.store_failures += 1

    # -- session -----------------------------------------------------------

    def _write_session(self, counters: Iterable[tuple[str, int]]) -> bool:
        """Add *counters* and hit recency in one transaction.

        Returns False (and keeps the pending recency) when it failed.
        """
        import sqlite3

        served = list(self._served)
        try:
            with self._lock:
                db = self._connection()
                with db:
                    db.execute("BEGIN IMMEDIATE")
                    db.executemany(_ADD_COUNTER, counters)
                    now = time.time()
                    db.executemany(
                        "UPDATE entries SET used = ? WHERE key = ?",
                        ((now, key) for key in served),
                    )
        except sqlite3.Error:
            return False
        self._served.difference_update(served)
        return True

    def flush_stats(self) -> None:
        """Add this session's counters to the database's lifetime totals.

        The totals (hits, misses, dedups, store failures and a sweep
        count) let ``repro cache stats`` report a hit rate for a
        long-lived directory.  The same write transaction records when
        each entry served since the last flush was used.  Counters are
        added in SQL under SQLite's write lock, so concurrent sweeps
        sharing a directory never lose each other's deltas.  Success
        zeroes the session counters, so flushing after every sweep never
        double-counts; a failure keeps them for the next attempt and
        counts a store failure instead of raising.
        """
        counters = zip(_STAT_KEYS, (
            self.hits, self.misses, self.deduped, self.store_failures, 1
        ))
        if self._write_session(counters):
            self.hits = self.misses = self.deduped = 0
            self.store_failures = 0
        else:
            self.store_failures += 1

    def close(self) -> None:
        """Write any pending hit recency, then close.

        Closing the directory's last connection leaves the database as
        one self-contained file.  A failed write is counted in
        ``store_failures``, never raised: it only affects gc order.
        """
        if self._served and not self._write_session(()):
            self.store_failures += 1
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    # -- reporting ---------------------------------------------------------

    def entry_count(self) -> int:
        """Number of entries currently in the database."""
        with self._lock:
            return int(self._connection().execute(_TOTALS).fetchone()[0])

    def describe(self) -> str:
        """One-line hit/miss summary, e.g. for the sweep CLI.

        Mentions in-batch dedup and store failures only when they occurred
        — otherwise a persistently unwritable cache would look like an
        eternally cold one.
        """
        extras = ""
        if self.deduped:
            extras += f", {self.deduped} deduped"
        if self.store_failures:
            extras += f", {self.store_failures} store failures"
        return (
            f"cache: {self.hits} hits, {self.misses} misses{extras} "
            f"({self.directory})"
        )
