"""Aggregated results of a batch execution.

A :class:`BatchResult` holds the full, canonically-ordered record stream
of one batch plus derived per-algorithm summaries: worst-case global
decision round with its witness workload (the paper's headline statistic),
safety-violation counts, and message totals.  ``to_json`` serializes the
whole result — records included — so sweeps can be archived and diffed;
two executions of the same grid are expected to produce byte-identical
JSON regardless of worker count.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping

from repro.analysis.sweep import SweepRecord
from repro.types import Round

#: Bumped with every record-schema change (2: records carry ``case_index``)
#: so older readers fail with a clean version error, not a TypeError.
FORMAT_VERSION = 2

#: ``"records": []`` as ``json.dumps(indent=2)`` lays it out at the top
#: level of an export; a raw newline is structural in JSON (strings
#: escape theirs), so the match is unique.
_EMPTY_RECORDS = '\n  "records": []'

#: Encodes one flat record with its fields laid out as the indented
#: encoder lays them out inside ``"records"`` (depth 3), braces aside;
#: ``indent=None`` keeps it in C.
_RECORD_ENCODER = json.JSONEncoder(
    separators=(",\n      ", ": "), sort_keys=True
)


@dataclass(frozen=True)
class AlgorithmSummary:
    """Per-algorithm aggregate over one batch.

    ``worst_round`` follows the convention of
    :meth:`BatchResult.worst_case`: a case that does not reach a global
    decision within its horizon counts as ``horizon + 1``, a
    conservative lower estimate of the true round.
    """

    algorithm: str
    cases: int
    decided: int
    violations: int
    worst_round: Round
    worst_workload: str
    messages: int

    ROW_HEADERS = (
        "algorithm", "cases", "decided", "violations",
        "worst round", "witness workload", "messages",
    )

    def row(self) -> tuple:
        return (
            self.algorithm,
            self.cases,
            self.decided,
            self.violations,
            self.worst_round,
            self.worst_workload,
            self.messages,
        )


def _effective_round(record: SweepRecord) -> Round:
    return (
        record.global_round
        if record.global_round is not None
        else record.horizon + 1
    )


@dataclass(frozen=True)
class BatchResult:
    """The complete outcome of one batch execution.

    ``records`` are in canonical case order (sorted by ``Case.index`` at
    collection time), independent of how many workers executed the batch.
    """

    records: tuple[SweepRecord, ...]

    @property
    def case_count(self) -> int:
        return len(self.records)

    @property
    def algorithms(self) -> tuple[str, ...]:
        """Algorithm names in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.algorithm, None)
        return tuple(seen)

    def for_algorithm(self, algorithm: str) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if r.algorithm == algorithm)

    def find(self, algorithm: str, workload: str) -> SweepRecord:
        """The unique record for (algorithm, workload); raises if absent."""
        for record in self.records:
            if record.algorithm == algorithm and record.workload == workload:
                return record
        raise KeyError(f"no record for ({algorithm!r}, {workload!r})")

    def violations(self) -> tuple[SweepRecord, ...]:
        """Records that broke agreement or validity."""
        return tuple(
            r for r in self.records
            if not (r.agreement_ok and r.validity_ok)
        )

    def worst_case(self, algorithm: str) -> tuple[Round, str]:
        """Worst global decision round for *algorithm*, with its witness.

        Ties keep the earliest record in case order; undecided cases
        count as ``horizon + 1`` (a conservative lower estimate of the
        true round).
        """
        worst: Round = 0
        witness = "<none>"
        for record in self.for_algorithm(algorithm):
            effective = _effective_round(record)
            if effective > worst:
                worst, witness = effective, record.workload
        return worst, witness

    def summary(self, algorithm: str) -> AlgorithmSummary:
        records = self.for_algorithm(algorithm)
        worst, witness = self.worst_case(algorithm)
        return AlgorithmSummary(
            algorithm=algorithm,
            cases=len(records),
            decided=sum(1 for r in records if r.global_round is not None),
            violations=sum(
                1 for r in records if not (r.agreement_ok and r.validity_ok)
            ),
            worst_round=worst,
            worst_workload=witness,
            messages=sum(r.messages for r in records),
        )

    def summaries(self) -> list[AlgorithmSummary]:
        """One summary per algorithm, in first-appearance order."""
        return [self.summary(name) for name in self.algorithms]

    # -- serialization -----------------------------------------------------

    def to_data(self) -> dict:
        """A plain-data (JSON-safe) representation of the whole batch."""
        return self._data([record.to_data() for record in self.records])

    def _data(self, records: list[dict]) -> dict:
        return {
            "version": FORMAT_VERSION,
            "cases": self.case_count,
            "records": records,
            "summaries": [asdict(summary) for summary in self.summaries()],
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """Canonical JSON: two equal results serialize byte-identically.

        ``indent=2`` is the export layout, written by :meth:`_write_export`
        exactly as :meth:`save` writes it.
        """
        if indent == 2:
            buffer = io.StringIO()
            self._write_export(buffer.write)
            return buffer.getvalue()
        return json.dumps(self.to_data(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        """Write ``to_json(indent=2)`` and a newline to *path*, byte for byte.

        Records are encoded and written one at a time, so the export
        costs the driver one record's encoding, not a copy of the batch.
        """
        with open(path, "w", encoding="utf-8") as handle:
            self._write_export(handle.write)
            handle.write("\n")

    def _write_export(self, write: Callable[[str], object]) -> None:
        """Pass ``json.dumps(self.to_data(), indent=2, sort_keys=True)`` to
        *write* in pieces.

        The stdlib encoder runs in pure Python whenever ``indent`` is
        set, so only the short rest of the export goes through
        ``json.dumps(indent=2)``.  The ``"records"`` array, all but a few
        lines of an export, is spliced in one flat record at a time by
        the C encoder, whose item separator lays the record's fields out
        at their indented depth.
        """
        head, empty, tail = json.dumps(
            self._data([]), indent=2, sort_keys=True
        ).partition(_EMPTY_RECORDS)
        write(head)
        if not self.records:
            write(empty)
        else:
            encode = _RECORD_ENCODER.encode
            separator = '\n  "records": [\n    {\n      '
            for record in self.records:
                write(separator + encode(record.to_data())[1:-1])
                separator = "\n    },\n    {\n      "
            write("\n    }\n  ]")
        write(tail)

    @staticmethod
    def load(path: str) -> "BatchResult":
        """Read a ``save``d (or ``--json``-exported) result back from disk.

        The inverse of :meth:`save`; shard exports loaded this way feed
        :meth:`merge` to recombine a sharded sweep.  JSONL record spools
        (:mod:`repro.engine.sink`) are detected by their first line — a
        complete record object — and routed through :meth:`load_spool`,
        so every consumer of exports accepts a spool transparently.
        Raises ``ValueError`` on malformed JSON or a foreign format
        version, ``OSError`` on an unreadable path.
        """
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.readline()
            try:
                first = json.loads(head)
            except ValueError:
                first = None
            if isinstance(first, dict) and "algorithm" in first:
                pass  # a spool line; re-read via the streaming reader
            else:
                handle.seek(0)
                return BatchResult.from_data(json.load(handle))
        return BatchResult.load_spool(path)

    @staticmethod
    def load_spool(path: str) -> "BatchResult":
        """Rebuild a result from a JSONL record spool (streaming reader).

        The spool is unordered (pool completion order) and may end in a
        torn line if the producing driver was killed mid-write; the
        reader drops the torn tail, and the records are re-sorted into
        canonical case order — so the rebuilt result (and its
        :meth:`to_json` bytes) is exactly what the in-memory path would
        have produced from the same finished cases.  Duplicate case
        indices (a spool appended twice) raise ``ValueError`` via
        :meth:`merge`'s overlap check.
        """
        from repro.engine.sink import read_spool

        records = tuple(read_spool(path))
        return BatchResult.merge([BatchResult(records=records)])

    @staticmethod
    def from_data(data: Mapping) -> "BatchResult":
        """Rebuild a result from :meth:`to_data` output (summaries re-derived)."""
        if data.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported batch format version {data.get('version')!r}"
            )
        return BatchResult(
            records=tuple(
                SweepRecord(**entry) for entry in data["records"]
            )
        )

    @staticmethod
    def merge(results: Iterable["BatchResult"]) -> "BatchResult":
        """Recombine several batches (e.g. per-shard results) canonically.

        Engine-produced records carry their originating case index
        (``SweepRecord.case_index``); when every record has one, the
        merged stream is re-sorted by that key, so the result is
        identical regardless of shard arrival order — and duplicate
        indices raise ``ValueError``, because shards of one grid must
        partition its index space and silently concatenating an
        overlapping (or twice-loaded) shard would corrupt every
        aggregate downstream.  Streams containing index-less records
        (hand-built, ``case_index == -1``) fall back to plain
        concatenation order.
        """
        merged: list[SweepRecord] = []
        for result in results:
            merged.extend(result.records)
        indices = [record.case_index for record in merged]
        if all(index >= 0 for index in indices):
            counts = Counter(indices)
            duplicates = sorted(
                index for index, count in counts.items() if count > 1
            )
            if duplicates:
                raise ValueError(
                    f"shards overlap: case indices {duplicates[:10]} "
                    f"appear in more than one input — shards of one grid "
                    f"must partition its index space"
                )
            merged.sort(key=lambda record: record.case_index)
        return BatchResult(records=tuple(merged))
