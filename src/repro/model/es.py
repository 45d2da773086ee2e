"""The eventually synchronous model ES — validator.

Every run of ES satisfies (paper, Section 1.2):

* **t-resilience** — every process completing round k receives round-k
  messages from at least n − t processes (within round k);
* **reliable channels** — messages from correct processes to correct
  processes are never lost (they may be delayed finitely);
* **eventual synchrony** — there is a round K such that every round k ≥ K
  is synchronous: round-k messages from processes that do not crash in
  round k arrive in round k, and crash-round messages arrive in round k or
  are lost (or delayed — footnote 5 — which only weakens the adversary we
  validate against, so we accept it).

A run is *synchronous* iff K = 1.  Since simulations are finite, the
validator checks eventual synchrony **within the horizon**: some suffix of
the simulated window must be synchronous.  Pass ``require_sync_by=None`` to
skip that check for deliberately asynchronous-window experiments.
"""

from __future__ import annotations

from repro.errors import ModelViolation
from repro.model.schedule import Schedule
from repro.sim.compiled import compile_schedule
from repro.types import Round


def check_es(
    schedule: Schedule, *, require_sync_by: Round | None = -1
) -> list[str]:
    """Return a list of ES violations (empty iff the schedule is ES-legal).

    Args:
        schedule: the schedule to validate.
        require_sync_by: latest acceptable synchrony round K.  The default
            ``-1`` means "within the horizon"; ``None`` disables the
            eventual-synchrony check (useful when the simulated window is
            an asynchronous prefix of a longer notional run).
    """
    violations: list[str] = []
    n, t = schedule.n, schedule.t

    if len(schedule.crashes) > t:
        violations.append(
            f"{len(schedule.crashes)} crashes exceed the resilience bound t={t}"
        )

    # t-resilience: a receiver completing round k hears, in round k,
    # the senders set in its compiled current-round mask (itself too).
    plan = compile_schedule(schedule)
    for k in range(1, schedule.horizon + 1):
        masks = plan.current_masks[k]
        for receiver in plan.completers[k]:
            got = masks[receiver].bit_count()
            if got < n - t:
                violations.append(
                    f"t-resilience: p{receiver} receives only {got} < "
                    f"n-t={n - t} round-{k} messages in round {k}"
                )

    # Reliable channels: correct -> correct messages are never lost.
    correct = schedule.correct
    for sender, receiver, k in sorted(schedule.losses):
        if sender in correct and receiver in correct:
            violations.append(
                f"reliable channels: correct->correct message r{k} "
                f"{sender}->{receiver} is lost"
            )

    # Eventual synchrony within the horizon (or by the requested round).
    if require_sync_by is not None:
        bound = schedule.horizon if require_sync_by == -1 else require_sync_by
        sync_from = schedule.sync_from()
        if sync_from > bound:
            violations.append(
                f"eventual synchrony: first all-synchronous suffix starts at "
                f"round {sync_from} > {bound}"
            )

    return violations


def is_es(schedule: Schedule, *, require_sync_by: Round | None = -1) -> bool:
    return not check_es(schedule, require_sync_by=require_sync_by)


def enforce_es(
    schedule: Schedule, *, require_sync_by: Round | None = -1
) -> Schedule:
    """Raise :class:`ModelViolation` unless the schedule is ES-legal."""
    violations = check_es(schedule, require_sync_by=require_sync_by)
    if violations:
        raise ModelViolation(
            "schedule violates ES:\n  " + "\n  ".join(violations)
        )
    return schedule
