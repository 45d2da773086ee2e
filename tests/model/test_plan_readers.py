"""The validators that read the compiled plan, against the delivery-rule oracle.

:func:`repro.model.es.check_es` (t-resilience) and
:func:`repro.detectors.simulation.simulate_from_schedule` read the
paper's delivery rule off the compiled plan.  Here both are held to
versions built on the point-query oracle of ``tests/kernel_oracle.py``:
every generator at three sizes, every grid workload kind, and
hypothesis-drawn builder schedules with losses, crash-round delays and
t-resilience violations.  The hand-built cases pin the expected outputs.

The cranked tier (``REPRO_PROPERTY_SAMPLES`` > 500, the nightly lane)
adds random-ES schedules at n = 100 and n = 250, where the oracle side
takes seconds per schedule.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.simulation import simulate_from_schedule
from repro.engine.grids import DETERMINISTIC_KINDS, build_schedule, family
from repro.model.es import check_es
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.random_schedules import (
    random_es_schedule,
    random_scs_schedule,
    random_serial_schedule,
)

from kernel_oracle import completes_round, same_round_senders, suspected_by

SYNC_MODES = (-1, None, 2)

#: Cranked lanes also run the n = 100 and n = 250 tier (mirrors the XXL
#: threshold of the engine property harness).
XXL_THRESHOLD = 500
SAMPLES = int(os.environ.get("REPRO_PROPERTY_SAMPLES", "") or 200)


def check_es_by_queries(schedule, *, require_sync_by=-1):
    """:func:`check_es` with t-resilience read off the point queries."""
    n, t = schedule.n, schedule.t
    violations = []
    if len(schedule.crashes) > t:
        violations.append(
            f"{len(schedule.crashes)} crashes exceed the resilience bound t={t}"
        )
    for k in range(1, schedule.horizon + 1):
        for receiver in range(n):
            if not completes_round(schedule, receiver, k):
                continue
            got = len(same_round_senders(schedule, receiver, k))
            if got < n - t:
                violations.append(
                    f"t-resilience: p{receiver} receives only {got} < "
                    f"n-t={n - t} round-{k} messages in round {k}"
                )
    correct = schedule.correct
    for sender, receiver, k in sorted(schedule.losses):
        if sender in correct and receiver in correct:
            violations.append(
                f"reliable channels: correct->correct message r{k} "
                f"{sender}->{receiver} is lost"
            )
    if require_sync_by is not None:
        bound = schedule.horizon if require_sync_by == -1 else require_sync_by
        if schedule.sync_from() > bound:
            violations.append(
                f"eventual synchrony: first all-synchronous suffix starts at "
                f"round {schedule.sync_from()} > {bound}"
            )
    return violations


def simulated_outputs_by_queries(schedule):
    """The Section-4 detector outputs from the point queries."""
    return {
        (pid, k): suspected_by(schedule, pid, k)
        for k in range(1, schedule.horizon + 1)
        for pid in range(schedule.n)
        if completes_round(schedule, pid, k)
    }


def assert_readers_match_oracle(schedule):
    for mode in SYNC_MODES:
        assert check_es(schedule, require_sync_by=mode) == (
            check_es_by_queries(schedule, require_sync_by=mode)
        ), mode
    outputs = simulate_from_schedule(schedule).outputs
    expected = simulated_outputs_by_queries(schedule)
    assert list(outputs.items()) == list(expected.items())


SYSTEMS = ((4, 1), (9, 4), (25, 12))


@pytest.mark.parametrize("n, t", SYSTEMS)
@pytest.mark.parametrize(
    "generator",
    (random_es_schedule, random_scs_schedule, random_serial_schedule),
    ids=lambda generator: generator.__name__,
)
def test_generators_match_oracle(generator, n, t):
    for seed in range(6):
        assert_readers_match_oracle(
            generator(n, t, seed, horizon=max(12, 3 * t + 6))
        )


def test_lossy_es_variant_matches_oracle():
    # Every crash-round message that does not arrive is lost, not delayed.
    for seed in range(6):
        assert_readers_match_oracle(
            random_es_schedule(9, 4, seed, horizon=18, loss_prob=1.0)
        )


#: The required parameters of the grid workload kinds that have any.
WORKLOAD_PARAMS = {
    "killer": {"rounds_per_cycle": 2},
    "async_prefix": {"k": 3, "crashes_after": 1},
    "rotating": {"async_rounds": 4, "delay_by": 2},
}


@pytest.mark.parametrize("n, t", SYSTEMS)
@pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
def test_workload_kinds_match_oracle(kind, n, t):
    params = WORKLOAD_PARAMS.get(kind, {})
    spec = family(kind, kind, horizon=3 * t + 6, **params)
    assert_readers_match_oracle(build_schedule(spec, n, t, 0))


@st.composite
def builder_schedules(draw):
    """Builder schedules with crashes (t may be exceeded), crash-round
    delays, delays and losses — often enough to break t-resilience."""
    n = draw(st.integers(2, 6))
    t = draw(st.integers(1, n - 1))
    horizon = draw(st.integers(1, 5))
    builder = ScheduleBuilder(n, t, horizon)
    crash_at = {}
    for pid in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        k = draw(st.integers(1, horizon))
        others = [q for q in range(n) if q != pid]
        delivered = draw(st.sets(st.sampled_from(others))) if others else set()
        delayed = {
            receiver: draw(st.integers(k + 1, horizon))
            for receiver in others
            if receiver not in delivered and k < horizon
            and draw(st.booleans())
        }
        builder.crash(pid, k, delivered_to=delivered, delayed=delayed)
        crash_at[pid] = k
    messages = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, horizon)
    )
    taken = set()
    for sender, receiver, k in draw(st.lists(messages, max_size=12)):
        if (
            sender == receiver or (sender, receiver, k) in taken
            or crash_at.get(sender, horizon + 1) <= k
        ):
            continue
        taken.add((sender, receiver, k))
        if k < horizon and draw(st.booleans()):
            builder.delay(sender, receiver, k,
                          draw(st.integers(k + 1, horizon)))
        else:
            builder.lose(sender, receiver, k)
    return builder.build()


@given(schedule=builder_schedules())
@settings(max_examples=300, deadline=None)
def test_builder_schedules_match_oracle(schedule):
    assert_readers_match_oracle(schedule)


@pytest.mark.parametrize("n", (100, 250))
@pytest.mark.parametrize("seed", range(2))
def test_random_es_matches_oracle_at_sweep_scale(n, seed):
    if SAMPLES <= XXL_THRESHOLD:
        pytest.skip(
            "n=100/250 oracle cases run only in cranked lanes "
            f"(REPRO_PROPERTY_SAMPLES > {XXL_THRESHOLD})"
        )
    t = 32
    assert_readers_match_oracle(
        random_es_schedule(n, t, seed, horizon=3 * t + 6)
    )


class TestHandBuiltCases:
    """Expected outputs of both readers on small hand-built schedules."""

    def test_failure_free_everyone_heard(self):
        schedule = Schedule.failure_free(4, 1, 5)
        outputs = simulate_from_schedule(schedule).outputs
        assert outputs[(0, 1)] == frozenset()
        assert check_es(schedule) == []

    def test_crashed_sender_missing(self):
        schedule = Schedule.synchronous(4, 1, 5, crashes={2: (1, [])})
        outputs = simulate_from_schedule(schedule).outputs
        assert outputs[(0, 1)] == frozenset({2})
        assert (2, 1) not in outputs
        # 3 = n - t same-round senders: exactly t-resilient.
        assert check_es(schedule) == []

    def test_partial_crash_delivery(self):
        schedule = Schedule.synchronous(4, 1, 5, crashes={2: (1, [0])})
        outputs = simulate_from_schedule(schedule).outputs
        assert 2 not in outputs[(0, 1)]
        assert 2 in outputs[(1, 1)]

    def test_delay_removes_sender(self):
        builder = ScheduleBuilder(4, 1, 5)
        builder.delay(3, 0, 2, 4)
        schedule = builder.build()
        outputs = simulate_from_schedule(schedule).outputs
        assert 3 in outputs[(0, 2)]
        assert 3 not in outputs[(0, 3)]
        assert check_es(schedule) == []

    def test_suspicion_matches_paper_definition(self):
        builder = ScheduleBuilder(4, 1, 5)
        builder.delay(3, 0, 2, 4)
        outputs = simulate_from_schedule(builder.build()).outputs
        # p0 suspects p3 in round 2 (message delayed = false suspicion).
        assert outputs[(0, 2)] == frozenset({3})
        assert outputs[(0, 3)] == frozenset()

    def test_crash_causes_accurate_suspicion(self):
        schedule = Schedule.synchronous(4, 1, 5, crashes={1: (2, [])})
        outputs = simulate_from_schedule(schedule).outputs
        assert outputs[(0, 2)] == frozenset({1})
        assert outputs[(0, 3)] == frozenset({1})

    def test_no_self_suspicion(self):
        schedule = Schedule.failure_free(4, 1, 5)
        outputs = simulate_from_schedule(schedule).outputs
        for pid in range(4):
            assert pid not in outputs[(pid, 1)]

    def test_delay_after_a_crash_breaks_t_resilience(self):
        builder = ScheduleBuilder(4, 1, 5)
        builder.crash(2, 1)
        builder.delay(3, 0, 2, 4)
        schedule = builder.build()
        assert simulate_from_schedule(schedule).outputs[(0, 2)] == (
            frozenset({2, 3})
        )
        assert check_es(schedule, require_sync_by=None) == [
            "t-resilience: p0 receives only 2 < n-t=3 round-2 messages "
            "in round 2"
        ]
