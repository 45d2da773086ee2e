"""Schedule serialization and trace replay.

Reproducibility plumbing: a schedule (plus proposals and algorithm name)
pins down a run completely, so persisting the schedule as plain JSON-able
data is enough to re-create any run — including lower-bound witnesses
found by exhaustive search — on another machine.

``schedule_to_data`` / ``schedule_from_data`` round-trip through plain
dicts/lists (JSON-safe); :func:`replay` re-executes a trace's schedule and
verifies the outcome is identical, which doubles as a determinism check.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.algorithms.base import AlgorithmFactory
from repro.errors import ScheduleError, SimulationError
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.kernel import run_algorithm
from repro.sim.trace import Trace, require_full_trace

FORMAT_VERSION = 1


def schedule_to_data(schedule: Schedule) -> dict[str, Any]:
    """A plain-data (JSON-safe) representation of the schedule."""
    return {
        "version": FORMAT_VERSION,
        "n": schedule.n,
        "t": schedule.t,
        "horizon": schedule.horizon,
        "crashes": [
            {
                "pid": pid,
                "round": spec.round,
                "delivered_to": sorted(spec.delivered_same_round),
                "delayed": [list(item) for item in spec.delayed],
            }
            for pid, spec in sorted(schedule.crashes.items())
        ],
        "delays": [
            [sender, receiver, sent, until]
            for (sender, receiver, sent), until in sorted(
                schedule.delays.items()
            )
        ],
        "losses": [list(key) for key in sorted(schedule.losses)],
    }


def schedule_from_data(data: Mapping[str, Any]) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_data` output.

    Stored data is outside input, so it goes through
    :class:`ScheduleBuilder`: an entry the builder would reject (a pid
    out of range, a delivery before its sending round or after the
    horizon, a self-delay) raises its :class:`ScheduleError`.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SimulationError(
            f"unsupported schedule format version {version!r}"
        )
    builder = ScheduleBuilder(data["n"], data["t"], data["horizon"])
    for entry in data["crashes"]:
        delayed = dict(entry["delayed"])
        if len(delayed) != len(entry["delayed"]):
            raise ScheduleError("duplicate receiver in CrashSpec.delayed")
        builder.crash(
            entry["pid"], entry["round"],
            delivered_to=entry["delivered_to"], delayed=delayed,
        )
    for sender, receiver, sent, until in data["delays"]:
        builder.delay(sender, receiver, sent, until)
    for sender, receiver, sent in data["losses"]:
        builder.lose(sender, receiver, sent)
    return builder.build()


def replay(trace: Trace, factory: "AlgorithmFactory") -> Trace:
    """Re-execute a trace's schedule and check the outcome matches.

    Raises :class:`SimulationError` on any divergence — which, for the
    deterministic kernel, indicates either a non-deterministic automaton
    or a corrupted trace.  Requires a full trace: the per-process view
    comparison below is meaningless without per-round records.
    """
    require_full_trace(trace, "replay")
    fresh = run_algorithm(factory, trace.schedule, list(trace.proposals))
    if dict(fresh.decisions) != dict(trace.decisions):
        raise SimulationError(
            f"replay diverged: decisions {dict(fresh.decisions)} != "
            f"{dict(trace.decisions)}"
        )
    if fresh.rounds_executed != trace.rounds_executed:
        raise SimulationError(
            f"replay diverged: {fresh.rounds_executed} rounds != "
            f"{trace.rounds_executed}"
        )
    for pid in range(trace.n):
        if fresh.view(pid, fresh.rounds_executed) != trace.view(
            pid, trace.rounds_executed
        ):
            raise SimulationError(f"replay diverged at p{pid}'s view")
    return fresh
