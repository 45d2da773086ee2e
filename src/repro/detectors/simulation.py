"""The Section-4 simulation of failure detectors from ES.

The paper (Section 4): "on receiving messages of round k in ES, the
simulated failure detector output is changed to the set of processes from
which no message was received in round k of ES".  Consequently, after the
round K from which (a) no message is delayed and (b) every faulty process
has crashed, the simulated output satisfies the ◇P properties — and a
fortiori ◇S.

Two entry points: :func:`simulate_from_schedule` derives the history
analytically from the schedule (what an always-listening process would
output), and :func:`simulate_from_trace` extracts it from an executed
trace (what the algorithm actually observed, absent for halted processes).
"""

from __future__ import annotations

from repro.detectors.base import DetectorHistory
from repro.model.schedule import Schedule
from repro.sim.bitset import full_mask, interned_set
from repro.sim.compiled import compile_schedule
from repro.sim.trace import Trace, require_full_trace
from repro.types import ProcessId, Round


def simulate_from_schedule(schedule: Schedule) -> DetectorHistory:
    """The simulated ◇P output for every process completing each round.

    Process p suspects q in round k iff q's round-k message does not
    reach p in round k: the complement of p's compiled current-round
    mask (p's own bit is always set, so p never suspects itself).
    """
    plan = compile_schedule(schedule)
    everyone = full_mask(schedule.n)
    outputs: dict[tuple[ProcessId, Round], frozenset[ProcessId]] = {}
    for k in range(1, schedule.horizon + 1):
        masks = plan.current_masks[k]
        for pid in plan.completers[k]:
            outputs[(pid, k)] = interned_set(everyone & ~masks[pid])
    return DetectorHistory(
        n=schedule.n,
        horizon=schedule.horizon,
        outputs=outputs,
        correct=schedule.correct,
        crash_rounds={
            pid: spec.round for pid, spec in schedule.crashes.items()
        },
    )


def simulate_from_trace(trace: Trace) -> DetectorHistory:
    """The simulated output as observed in an executed run.

    Unlike :func:`simulate_from_schedule`, a process that halted stops
    producing outputs, and processes that halted also stop *sending*, so
    late rounds may suspect them — matching what an algorithm layered on
    the simulation would genuinely see.
    """
    outputs: dict[tuple[ProcessId, Round], frozenset[ProcessId]] = {}
    everyone = frozenset(range(trace.n))
    for rec in require_full_trace(trace, "simulating detector output"):
        for pid, inbox in rec.delivered.items():
            heard = {m.sender for m in inbox if m.sent_round == rec.round}
            outputs[(pid, rec.round)] = everyone - heard - {pid}
    return DetectorHistory(
        n=trace.n,
        horizon=trace.rounds_executed,
        outputs=outputs,
        correct=trace.schedule.correct,
        crash_rounds={
            pid: spec.round
            for pid, spec in trace.schedule.crashes.items()
        },
    )
