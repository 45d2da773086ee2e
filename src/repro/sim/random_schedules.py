"""Seeded random generation of model-legal schedules.

Property-based tests and the randomized sweeps need large families of
ES-legal (and SCS-legal) schedules.  All generators are deterministic
functions of their seed; the ES generator maintains the three ES
constraints by construction (and the tests re-validate every emitted
schedule with :func:`repro.model.es.check_es`).

Every sweep rebuilds its schedules before any case runs, so the
generators draw through the local helpers :func:`_randint` and
:func:`_sample` rather than ``random.Random``'s methods.  Each helper
consumes the generator's ``getrandbits`` stream exactly as CPython's
``randint``/``randrange`` and ``sample`` do (the same rejection loop,
the same pool-or-set branch of ``sample``), so a seed yields the same
schedule, digest and cache key as a method-drawn one;
``tests/random_schedules_oracle.py`` keeps the method-drawn generators
as the reference.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import Callable

from repro.model.schedule import Schedule, ScheduleBuilder
from repro.types import ProcessId, Round, validate_system_size

#: A bound ``random.Random.getrandbits``: the one source every helper reads.
GetRandBits = Callable[[int], int]


def _randint(getrandbits: GetRandBits, a: int, b: int) -> int:
    """``Random.randint(a, b)``: uniform in ``a .. b`` by bit rejection.

    ``randrange(stop)`` draws exactly as ``randint(0, stop - 1)`` does.
    """
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({a}, {b})")
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return a + r


def _sample(getrandbits: GetRandBits, pool: list, k: int) -> list:
    """``Random.sample(pool, k)``, drawing the same bits; reorders *pool*.

    CPython tracks the unselected items in a list when the population
    is small next to a k-entry set, and the selected indices in a set
    otherwise; the threshold below is ``sample``'s own, so the same
    branch runs and the same draws are consumed.  Callers pass a list
    they own: the pool branch swaps selected items out of it, as
    ``sample`` does to its private copy.
    """
    n = len(pool)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        for left in range(n, n - k, -1):
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[left - 1]
    else:
        bits = n.bit_length()
        selected: set[int] = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result.append(pool[j])
    return result


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
    bits, chance = rng.getrandbits, rng.random
    sync_by = max(1, horizon // 2) if sync_by is None else sync_by
    cap = t if max_crashes is None else min(max_crashes, t)

    builder = ScheduleBuilder(n, t, horizon)
    f = _randint(bits, 0, cap)
    faulty = sorted(_sample(bits, list(range(n)), f))
    crash_rounds = {pid: _randint(bits, 1, horizon) for pid in faulty}

    # Crash specifications: some receivers get the crash-round message now,
    # some later, the rest never.
    same_round_crash_delivery: dict[ProcessId, frozenset[ProcessId]] = {}
    for pid, crash_round in crash_rounds.items():
        others = [q for q in range(n) if q != pid]
        delivered = frozenset(
            _sample(bits, others, _randint(bits, 0, n - 1))
        )
        delayed: dict[ProcessId, Round] = {}
        if crash_round < horizon:
            last = min(crash_round + delay_span, horizon)
            for q in range(n):
                if q != pid and q not in delivered and chance() > loss_prob:
                    delayed[q] = _randint(bits, crash_round + 1, last)
        same_round_crash_delivery[pid] = delivered
        builder.crash(pid, crash_round, delivered_to=delivered,
                      delayed=delayed)

    # Asynchronous prefix: per-receiver random delays, respecting the
    # t-resilience quota of n - t same-round messages.
    never = horizon + 1
    delay_row = builder.delay_row
    for k in range(1, min(sync_by - 1, horizon - 1) + 1):
        # Senders that survive round k; the receivers are the same set,
        # and each receiver's candidates are the other steady senders.
        steady = [p for p in range(n) if crash_rounds.get(p, never) > k]
        choices = len(steady) - 1
        # Receiver always hears itself; keep >= n - t same-round total.
        base_slack = 1 + choices - (n - t)
        crash_heard = [0] * n
        for p, r in crash_rounds.items():
            if r == k:
                for q in same_round_crash_delivery[p]:
                    crash_heard[q] += 1
        last = min(k + delay_span, horizon)
        for position, receiver in enumerate(steady):
            slack = base_slack + crash_heard[receiver]
            if slack <= 0:
                continue
            count = _randint(bits, 0, min(slack, choices))
            if not count:
                continue
            candidates = steady[:position] + steady[position + 1:]
            row: dict[Round, int] = {}
            for victim in sorted(_sample(bits, candidates, count)):
                until = _randint(bits, k + 1, last)
                row[until] = row.get(until, 0) | 1 << victim
            delay_row(k, receiver, row)

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
    bits = random.Random(seed).getrandbits
    cap = t if max_crashes is None else min(max_crashes, t)
    builder = ScheduleBuilder(n, t, horizon)
    f = _randint(bits, 0, cap)
    for pid in sorted(_sample(bits, list(range(n)), f)):
        crash_round = _randint(bits, 1, horizon)
        others = [q for q in range(n) if q != pid]
        delivered = _sample(bits, others, _randint(bits, 0, n - 1))
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
    bits = random.Random(seed).getrandbits
    cap = t if max_crashes is None else min(max_crashes, t)
    builder = ScheduleBuilder(n, t, horizon)
    f = _randint(bits, 0, cap)
    crashers = sorted(_sample(bits, list(range(n)), f))
    rounds = sorted(_sample(bits, list(range(1, horizon + 1)), f))
    for pid, crash_round in zip(crashers, rounds):
        others = [q for q in range(n) if q != pid]
        delivered = _sample(bits, others, _randint(bits, 0, n - 1))
        builder.crash(pid, crash_round, delivered_to=delivered)
    return builder.build()


def random_proposals(
    n: int, seed: int, *, pool: int | None = None
) -> list[int]:
    """Deterministic random proposals in ``0 .. pool-1`` (default pool = n)."""
    bits = random.Random(seed).getrandbits
    pool = n if pool is None else pool
    return [_randint(bits, 0, pool - 1) for _ in range(n)]
