"""Deterministic round-based simulation: kernel, traces, schedule generators.

The kernel executes one algorithm automaton per process against an
adversary :class:`~repro.model.schedule.Schedule` and produces a
:class:`~repro.sim.trace.Trace` — a complete, replayable record of the run.
Determinism is a hard guarantee: the same automata and schedule always
produce the identical trace, which the lower-bound machinery exploits to
compare process *views* across runs.
"""

from repro.sim.compiled import CompiledSchedule, compile_schedule
from repro.sim.kernel import TRACE_MODES, execute
from repro.sim.trace import RoundRecord, Trace
from repro.sim.view import RoundView

__all__ = [
    "CompiledSchedule",
    "RoundRecord",
    "RoundView",
    "TRACE_MODES",
    "Trace",
    "compile_schedule",
    "execute",
]
