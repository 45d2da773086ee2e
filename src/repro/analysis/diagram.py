"""ASCII space-time diagrams of runs — the paper's Figure 1, rendered.

One column per round, one row per process.  Cell glyphs:

* ``o``  — process sent and completed the round normally
* ``X``  — process crashed in this round
* ``.``  — process already crashed (or halted) — silent
* ``H``  — process halted (returned) at the end of this round
* ``D!`` — process decided in this round (shown with the value)

Between the rows, per-round annotations list suspicious events: delayed
arrivals (``<-s@r``: a round-r message from s arrived here) and the
suspicion sets implied by the schedule.  The examples use this to show the
five lower-bound runs side by side.
"""

from __future__ import annotations

from repro.sim.trace import Trace, require_full_trace
from repro.types import ProcessId, Round


def _cell(trace: Trace, pid: ProcessId, k: Round) -> str:
    record = trace.record(k)
    if pid in record.decided:
        return f"D={record.decided[pid]!r}"
    if pid in record.crashed:
        return "X"
    if pid in record.halted:
        return "H"
    if record.sent.get(pid) is None:
        return "."
    return "o"


def render_run(trace: Trace, *, upto: Round | None = None,
               title: str | None = None) -> str:
    """Render one run as a process × round grid (full traces only)."""
    require_full_trace(trace, "rendering a space-time diagram")
    last = min(upto or trace.rounds_executed, trace.rounds_executed)
    rounds = list(range(1, last + 1))
    header = ["proc"] + [f"r{k}" for k in rounds]
    rows = []
    for pid in range(trace.n):
        rows.append(
            [f"p{pid}"] + [_cell(trace, pid, k) for k in rounds]
        )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]

    def line(cells):
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

    out = []
    if title:
        out.append(title)
    out.append(line(header))
    out.append(line(["-" * w for w in widths]))
    for row in rows:
        out.append(line(row))
    annotations = _delay_annotations(trace, last)
    if annotations:
        out.append("delayed deliveries:")
        out.extend(f"  {a}" for a in annotations)
    return "\n".join(out)


def _delay_annotations(trace: Trace, last: Round) -> list[str]:
    notes = []
    schedule = trace.schedule
    for (sender, receiver, sent), until in sorted(schedule.delays.items()):
        if sent <= last:
            notes.append(
                f"r{sent} {sender}->{receiver} arrives r{until}"
                + (" (beyond window)" if until > last else "")
            )
    for pid, spec in sorted(schedule.crashes.items()):
        for receiver, until in spec.delayed:
            if spec.round <= last:
                notes.append(
                    f"r{spec.round} {pid}->{receiver} (crash-round) "
                    f"arrives r{until}"
                )
    return notes
