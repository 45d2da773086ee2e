"""Parameter sweeps: run (algorithm × workload) grids and collect records.

:class:`SweepRecord` and :func:`run_case` are the measurement primitives
of the whole analysis stack; the grid entry points (:func:`sweep`,
:func:`worst_case_round`) delegate execution to the batch engine
(:mod:`repro.engine`), which also powers ``python -m repro sweep`` and
the benches — these wrappers remain for call sites that already hold
factories and schedules in hand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro.algorithms.base import AlgorithmFactory
from repro.analysis.metrics import check_agreement, check_validity
from repro.model.schedule import Schedule
from repro.sim.kernel import run_algorithm
from repro.sim.trace import Trace
from repro.types import Round, Value


@dataclass(frozen=True)
class SweepRecord:
    """One (algorithm, workload) measurement.

    ``case_index`` is the originating :class:`~repro.engine.cases.Case`
    index, stamped by the engine when the record is produced (or re-stamped
    on a cache hit).  It is the explicit sort key that makes
    :meth:`~repro.engine.results.BatchResult.merge` order-independent;
    ``-1`` marks hand-built records that never passed through the engine.
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


def _as_cases(
    cases: Iterable[tuple[str, AlgorithmFactory, str, Schedule, Sequence[Value]]],
):
    from repro.engine.cases import Case

    return [
        Case(
            index=i,
            algorithm=algorithm,
            workload=workload,
            schedule=schedule,
            proposals=tuple(proposals),
            factory=factory,
        )
        for i, (algorithm, factory, workload, schedule, proposals)
        in enumerate(cases)
    ]


def sweep(
    cases: Iterable[
        tuple[str, AlgorithmFactory | None, str, Schedule, Sequence[Value]]
    ],
    *,
    executor=None,
    cache=None,
) -> list[SweepRecord]:
    """Run every case on the engine and return the records in input order.

    ``executor`` selects the execution backend
    (:mod:`repro.engine.executors`; default serial) and ``cache`` is
    forwarded to the engine (:class:`~repro.engine.cache.ResultCache`).
    A case's factory may be ``None``, in which case its algorithm name is
    resolved from the registry inside the engine — that is also what
    makes the case cacheable: explicit factories have no reliable code
    fingerprint, so the cache declines to key them (and they force
    process-pool executors onto their serial fallback).
    """
    from repro.engine.runner import run_cases

    return run_cases(_as_cases(cases), executor=executor, cache=cache)


def worst_case_round(
    factory: AlgorithmFactory | str,
    schedules: Iterable[tuple[str, Schedule]],
    proposals: Sequence[Value],
    *,
    executor=None,
    cache=None,
) -> tuple[Round, str]:
    """The maximum global decision round over the schedules, with its witness.

    Schedules on which the run does not decide within the horizon count as
    ``horizon + 1`` (a conservative lower estimate of the true round).

    ``factory`` may be a registry name instead of a factory callable; the
    engine then resolves it by name, which also makes the cases eligible
    for the forwarded ``cache`` (explicit factory callables never are —
    their captured state has no reliable fingerprint).  ``executor``
    selects the execution backend (default serial).
    """
    from repro.engine.results import BatchResult
    from repro.engine.runner import run_cases

    if isinstance(factory, str):
        algorithm, explicit = factory, None
    else:
        algorithm, explicit = "<worst-case>", factory
    cases = _as_cases(
        (algorithm, explicit, name, schedule, proposals)
        for name, schedule in schedules
    )
    result = BatchResult(
        records=tuple(run_cases(cases, executor=executor, cache=cache))
    )
    return result.worst_case(algorithm)
