"""Record sinks: streaming sweep records out of the driver's memory.

Up to the n = 100 milestone every sweep materialized its complete
:class:`~repro.engine.results.BatchResult` in the driver process before
a single byte reached disk.  That is the wrong shape for ``--profile
xxlarge``: a run killed half-way should leave every finished case on
disk instead of nothing, and the runner should not hold the batch while
it runs.  (The pooled backend and the read-back still hold every record;
see :mod:`repro.engine.runner`.)

A :class:`RecordSink` is the engine-side half of that contract — any
object with ``append(record)`` / ``close()``.  The runner
(:func:`repro.engine.runner.run_cases` with ``sink=``) feeds every
produced :class:`~repro.analysis.sweep.SweepRecord` to the sink the
moment it arrives (cache hits first, then executor completions, in
whatever order the pool finishes), and holds nothing back.

:class:`JsonlRecordSink` is the stock implementation: an append-only
JSONL *spool* — one canonically serialized record per line, flushed per
append, so the file is crash-consistent by construction.  The spool is
**unordered** (completion order is nondeterministic under a pool); the
canonical order is restored when the spool is read back:
:func:`read_spool` streams the records and tolerates a torn final line
— the signature of a driver killed mid-write — so a partial spool always
recovers as a clean partial result, and
:meth:`BatchResult.load <repro.engine.results.BatchResult.load>` (which
sniffs the spool format) re-sorts by ``case_index`` into exactly the
bytes the in-memory path would have exported.
"""

from __future__ import annotations

import json
from typing import Iterator, Protocol, runtime_checkable

from repro.analysis.sweep import SweepRecord

__all__ = [
    "RecordSink",
    "JsonlRecordSink",
    "read_spool",
    "record_to_line",
]


@runtime_checkable
class RecordSink(Protocol):
    """The record-streaming protocol.

    ``append`` receives each record as it is produced — in completion
    order, which under a pool backend is nondeterministic; records carry
    their ``case_index``, so canonical order is recoverable downstream.
    ``close`` flushes and releases whatever the sink holds; appending
    after close is an error.  Sinks must be durable incrementally: a
    driver killed between two appends must leave every previously
    appended record readable.
    """

    def append(self, record: SweepRecord) -> None: ...

    def close(self) -> None: ...


def record_to_line(record: SweepRecord) -> str:
    """One record as its canonical single-line JSON (no trailing newline).

    The same key-sorted serialization ``BatchResult.to_json`` uses for
    the ``records`` array, so a spool line and an export entry are the
    same bytes modulo whitespace.
    """
    return json.dumps(record.to_data(), sort_keys=True)


class JsonlRecordSink:
    """An append-only JSONL spool on disk — one record per line.

    Opens the path in append mode (a retried driver continues an
    existing spool rather than truncating it) and flushes every line, so
    the spool never holds more than the line being written in volatile
    state.  Use as a context manager or call :meth:`close` explicitly.
    """

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, record: SweepRecord) -> None:
        self._handle.write(record_to_line(record))
        self._handle.write("\n")
        self._handle.flush()
        self.count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlRecordSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_spool(path: str) -> Iterator[SweepRecord]:
    """Stream the records of a JSONL spool, tolerating a torn tail.

    A driver killed mid-append leaves at most one incomplete final line;
    that line is silently dropped — the spool then reads as the clean
    partial result of every record that finished.  A malformed line
    *followed by* further records is not a torn tail but corruption, and
    raises ``ValueError`` naming the line.
    """
    pending_error: str | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if pending_error is not None:
                raise ValueError(pending_error)
            stripped = line.strip()
            if not stripped:
                continue
            try:
                data = json.loads(stripped)
                record = SweepRecord(**data)
            except (ValueError, TypeError):
                # Only legal as the last line (torn by a mid-write kill);
                # defer the verdict until we know whether more follows.
                pending_error = (
                    f"{path}:{lineno}: malformed spool line is not the "
                    f"final line — the spool is corrupt, not torn"
                )
                continue
            yield record
