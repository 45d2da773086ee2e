"""Sweep records: the measurement primitives of the analysis stack.

:class:`SweepRecord` and :func:`run_case` measure one case; grids of
cases run on the batch engine (:mod:`repro.engine`), which powers
``python -m repro sweep``, the benches and the examples.  The worst
global decision round over a batch is
:meth:`~repro.engine.results.BatchResult.worst_case`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from repro.algorithms.base import AlgorithmFactory
from repro.analysis.metrics import check_agreement, check_validity
from repro.model.schedule import Schedule
from repro.sim.kernel import run_algorithm
from repro.sim.trace import Trace
from repro.types import Round, Value


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One (algorithm, workload) measurement.

    ``case_index`` is the originating :class:`~repro.engine.cases.Case`
    index, stamped by the engine when the record is produced (or re-stamped
    on a cache hit).  It is the explicit sort key that makes
    :meth:`~repro.engine.results.BatchResult.merge` order-independent;
    ``-1`` marks hand-built records that never passed through the engine.

    Slotted: a driver holding a whole batch holds one record per case,
    and a slotted record is a fraction of one carrying an instance dict.
    """

    algorithm: str
    workload: str
    n: int
    t: int
    crashes: int
    sync_from: Round
    global_round: Round | None
    first_round: Round | None
    deciders: int
    agreement_ok: bool
    validity_ok: bool
    messages: int
    horizon: Round = 0
    correct_undecided: int = 0
    case_index: int = -1

    def row(self) -> tuple:
        return (
            self.algorithm,
            self.workload,
            self.n,
            self.t,
            self.crashes,
            self.sync_from,
            self.global_round if self.global_round is not None else "-",
            self.deciders,
            "yes" if self.agreement_ok and self.validity_ok else "NO",
        )

    ROW_HEADERS = (
        "algorithm", "workload", "n", "t", "f", "K",
        "global round", "deciders", "safe",
    )

    def to_data(self) -> dict:
        """The record as a flat dict of its (scalar) fields.

        The one encoding that exports, spools and the result cache
        serialize; unlike ``dataclasses.asdict`` it deep-copies nothing.
        """
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    # Frozen and slotted, so pickle's default state protocol has no
    # ``__dict__`` to use and Python 3.10 rejects its slot fallback (see
    # ``model/messages.py``); records cross the pool's pipe, so the state
    # methods are explicit.

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in _RECORD_FIELDS)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(_RECORD_FIELDS, state):
            object.__setattr__(self, name, value)


_RECORD_FIELDS = tuple(field.name for field in fields(SweepRecord))


def run_case(
    algorithm: str,
    factory: AlgorithmFactory,
    workload: str,
    schedule: Schedule,
    proposals: Sequence[Value],
) -> tuple[SweepRecord, Trace]:
    """Run one case and record its metrics (returns the trace for reuse).

    The run is lean (see :func:`repro.sim.kernel.execute`): every metric
    the record carries comes from the decision-level fields, so per-round
    records would only be built to be thrown away.  Callers that need
    views or diagrams run :func:`~repro.sim.kernel.run_algorithm` with
    ``trace="full"`` themselves.
    """
    trace = run_algorithm(factory, schedule, proposals, trace="lean")
    return case_record(algorithm, workload, trace), trace


def case_record(algorithm: str, workload: str, trace: Trace) -> SweepRecord:
    """The :class:`SweepRecord` of one run.

    Reads only the decision-level fields, so a full and a lean trace of
    the same run give equal records.
    """
    schedule = trace.schedule
    return SweepRecord(
        algorithm=algorithm,
        workload=workload,
        n=schedule.n,
        t=schedule.t,
        crashes=len(schedule.crashes),
        sync_from=schedule.sync_from(),
        global_round=trace.global_decision_round(),
        first_round=trace.first_decision_round(),
        deciders=len(trace.decisions),
        agreement_ok=not check_agreement(trace),
        validity_ok=not check_validity(trace),
        messages=trace.message_count(),
        horizon=schedule.horizon,
        correct_undecided=sum(
            1 for pid in schedule.correct if pid not in trace.decisions
        ),
    )

