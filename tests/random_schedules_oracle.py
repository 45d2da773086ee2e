"""The pre-optimization seeded schedule generators, kept as test oracles.

These are the bodies of ``random_es_schedule``, ``random_scs_schedule``,
``random_serial_schedule`` and ``random_proposals`` as they drew through
``random.Random``'s own ``randint``/``randrange``/``sample`` methods.
:mod:`repro.sim.random_schedules` draws through local helpers instead;
``tests/sim/test_random_schedules.py`` asserts the two produce equal
schedules (and digests) seed for seed, which is what keeps every cache
key, export and pinned digest stable.  Do not optimize this file.
"""

from __future__ import annotations

import random

from repro.model.schedule import Schedule, ScheduleBuilder
from repro.types import ProcessId, Round, validate_system_size


def random_es_schedule(
    n: int,
    t: int,
    seed: int,
    *,
    horizon: Round = 12,
    sync_by: Round | None = None,
    max_crashes: int | None = None,
    delay_span: Round = 3,
    loss_prob: float = 0.3,
) -> Schedule:
    """A random ES-legal schedule.

    Args:
        sync_by: the latest allowed synchrony round K (rounds >= K are
            synchronous).  Defaults to ``horizon // 2`` so that every
            generated run has a synchronous suffix to terminate in.
        max_crashes: cap on faulty processes (default t).
        delay_span: delayed messages arrive within this many rounds.
        loss_prob: probability that an undelivered crash-round message is
            lost rather than delayed (losses from faulty senders are
            ES-legal).
    """
    validate_system_size(n, t)
    rng = random.Random(seed)
    sync_by = max(1, horizon // 2) if sync_by is None else sync_by
    cap = t if max_crashes is None else min(max_crashes, t)

    builder = ScheduleBuilder(n, t, horizon)
    f = rng.randint(0, cap)
    faulty = sorted(rng.sample(range(n), f))
    crash_rounds: dict[ProcessId, Round] = {}
    for pid in faulty:
        crash_rounds[pid] = rng.randint(1, horizon)

    # Crash specifications: some receivers get the crash-round message now,
    # some later, the rest never.
    same_round_crash_delivery: dict[ProcessId, frozenset[ProcessId]] = {}
    for pid, crash_round in crash_rounds.items():
        others = [q for q in range(n) if q != pid]
        delivered = sorted(
            rng.sample(others, rng.randint(0, len(others)))
        )
        leftovers = [q for q in others if q not in delivered]
        delayed: dict[ProcessId, Round] = {}
        for q in leftovers:
            if crash_round < horizon and rng.random() > loss_prob:
                delayed[q] = rng.randint(
                    crash_round + 1, min(crash_round + delay_span, horizon)
                )
        same_round_crash_delivery[pid] = frozenset(delivered)
        builder.crash(pid, crash_round, delivered_to=delivered,
                      delayed=delayed)

    # Asynchronous prefix: per-receiver random delays, respecting the
    # t-resilience quota of n - t same-round messages.
    for k in range(1, min(sync_by - 1, horizon - 1) + 1):
        crashing_now = [p for p, r in crash_rounds.items() if r == k]
        steady = [
            p
            for p in range(n)
            if crash_rounds.get(p, horizon + 1) > k
        ]
        for receiver in range(n):
            if crash_rounds.get(receiver, horizon + 1) <= k:
                continue
            crash_deliveries = sum(
                1
                for p in crashing_now
                if receiver in same_round_crash_delivery[p]
            )
            candidates = [p for p in steady if p != receiver]
            # Receiver always hears itself; keep >= n - t same-round total.
            same_round_now = 1 + len(candidates) + crash_deliveries
            slack = same_round_now - (n - t)
            if slack <= 0:
                continue
            count = rng.randint(0, min(slack, len(candidates)))
            for victim in sorted(rng.sample(candidates, count)):
                until = rng.randint(k + 1, min(k + delay_span, horizon))
                builder.delay(victim, receiver, k, until)

    return builder.build()


def random_scs_schedule(
    n: int,
    t: int,
    seed: int,
    *,
    horizon: Round = 8,
    max_crashes: int | None = None,
) -> Schedule:
    """A random SCS-legal (synchronous) schedule: crashes with partial delivery."""
    validate_system_size(n, t)
    rng = random.Random(seed)
    cap = t if max_crashes is None else min(max_crashes, t)
    builder = ScheduleBuilder(n, t, horizon)
    f = rng.randint(0, cap)
    for pid in sorted(rng.sample(range(n), f)):
        crash_round = rng.randint(1, horizon)
        others = [q for q in range(n) if q != pid]
        delivered = sorted(rng.sample(others, rng.randint(0, len(others))))
        builder.crash(pid, crash_round, delivered_to=delivered)
    return builder.build()


def random_serial_schedule(
    n: int,
    t: int,
    seed: int,
    *,
    horizon: Round = 8,
    max_crashes: int | None = None,
) -> Schedule:
    """A random *serial* schedule: synchronous, at most one crash per round."""
    validate_system_size(n, t)
    rng = random.Random(seed)
    cap = t if max_crashes is None else min(max_crashes, t)
    builder = ScheduleBuilder(n, t, horizon)
    f = rng.randint(0, cap)
    crashers = sorted(rng.sample(range(n), f))
    rounds = sorted(rng.sample(range(1, horizon + 1), f))
    for pid, crash_round in zip(crashers, rounds):
        others = [q for q in range(n) if q != pid]
        delivered = sorted(rng.sample(others, rng.randint(0, len(others))))
        builder.crash(pid, crash_round, delivered_to=delivered)
    return builder.build()


def random_proposals(
    n: int, seed: int, *, pool: int | None = None
) -> list[int]:
    """Deterministic random proposals in ``0 .. pool-1`` (default pool = n)."""
    rng = random.Random(seed)
    pool = n if pool is None else pool
    return [rng.randrange(pool) for _ in range(n)]
