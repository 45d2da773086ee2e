"""Tests for random schedule generators: legality, determinism and draws.

The generators draw through local helpers; ``random_schedules_oracle``
keeps the method-drawn originals, and the schedules (and digests) of
the two must match seed for seed, or every cache key and pinned export
would move.
"""

import random

import pytest
import random_schedules_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.es import check_es
from repro.model.scs import check_scs
from repro.sim.random_schedules import (
    _randint,
    _sample,
    random_es_schedule,
    random_proposals,
    random_scs_schedule,
    random_serial_schedule,
)

SYSTEM_SIZES = st.sampled_from([(3, 1), (4, 1), (5, 2), (7, 3), (9, 4)])


class TestRandomES:
    @given(seed=st.integers(0, 10_000), size=SYSTEM_SIZES)
    @settings(max_examples=60, deadline=None)
    def test_always_es_legal(self, seed, size):
        n, t = size
        schedule = random_es_schedule(n, t, seed)
        assert check_es(schedule) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_in_seed(self, seed):
        a = random_es_schedule(5, 2, seed)
        b = random_es_schedule(5, 2, seed)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        schedules = {random_es_schedule(5, 2, seed) for seed in range(30)}
        assert len(schedules) > 1

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_sync_by_respected(self, seed):
        schedule = random_es_schedule(6, 2, seed, horizon=12, sync_by=5)
        assert schedule.sync_from() <= 5

    def test_max_crashes_zero(self):
        schedule = random_es_schedule(5, 2, 7, max_crashes=0)
        assert not schedule.crashes


class TestRandomSCS:
    @given(seed=st.integers(0, 10_000), size=SYSTEM_SIZES)
    @settings(max_examples=60, deadline=None)
    def test_always_scs_legal(self, seed, size):
        n, t = size
        schedule = random_scs_schedule(n, t, seed)
        assert check_scs(schedule) == []

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_scs_is_synchronous(self, seed):
        schedule = random_scs_schedule(5, 2, seed)
        assert schedule.is_synchronous_run()


class TestRandomSerial:
    @given(seed=st.integers(0, 10_000), size=SYSTEM_SIZES)
    @settings(max_examples=60, deadline=None)
    def test_always_serial(self, seed, size):
        n, t = size
        schedule = random_serial_schedule(n, t, seed)
        assert schedule.is_serial_run()


class TestRandomProposals:
    def test_deterministic(self):
        assert random_proposals(6, 3) == random_proposals(6, 3)

    def test_length_and_range(self):
        values = random_proposals(8, 11, pool=3)
        assert len(values) == 8
        assert all(0 <= v < 3 for v in values)


# -- equality with the method-drawn generators ------------------------------

ORACLE_SIZES = [(3, 1), (4, 1), (9, 4), (25, 8)]
ORACLE_SEEDS = range(200)


def _same(got, want):
    return got == want and got.digest() == want.digest()


class TestDrawHelpersMatchRandom:
    """The helpers consume ``getrandbits`` exactly as ``random.Random``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_randint(self, seed):
        mine, theirs = random.Random(seed), random.Random(seed)
        bounds = [(0, 0), (1, 1), (0, 1), (0, 7), (3, 9), (-4, 4), (1, 2**40)]
        for a, b in bounds * 5:
            assert _randint(mine.getrandbits, a, b) == theirs.randint(a, b)
        assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", range(40))
    def test_randrange_is_randint_below(self, seed):
        mine, theirs = random.Random(seed), random.Random(seed)
        for stop in (1, 2, 3, 9, 100, 1000, 2**33) * 5:
            assert _randint(mine.getrandbits, 0, stop - 1) == (
                theirs.randrange(stop)
            )
        assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "size, k",
        [
            (0, 0), (1, 0), (1, 1), (8, 0), (8, 8), (8, 5), (9, 9),
            (21, 6), (22, 1), (30, 7), (30, 30), (200, 12), (999, 32),
            (999, 6), (5000, 40),
        ],
    )
    def test_sample(self, size, k):
        # (22, 1), (200, 12), (999, *) and (5000, 40) take the set branch:
        # the population outgrows sample's set-size threshold.
        for seed in range(15):
            mine, theirs = random.Random(seed), random.Random(seed)
            population = [10 * item + 3 for item in range(size)]
            got = _sample(mine.getrandbits, list(population), k)
            assert got == theirs.sample(population, k)
            assert mine.getstate() == theirs.getstate()

    def test_sample_larger_than_the_population_is_rejected(self):
        with pytest.raises(ValueError):
            random.Random(0).sample(range(3), 4)
        with pytest.raises(ValueError):
            _sample(random.Random(0).getrandbits, [0, 1, 2], 4)
        with pytest.raises(ValueError):
            _sample(random.Random(0).getrandbits, [0, 1, 2], -1)

    def test_empty_range_is_rejected(self):
        with pytest.raises(ValueError):
            random.Random(0).randint(3, 2)
        with pytest.raises(ValueError):
            _randint(random.Random(0).getrandbits, 3, 2)


class TestGeneratorsMatchTheOracle:
    """Every seed yields the method-drawn generators' schedule and digest."""

    @pytest.mark.parametrize("n, t", ORACLE_SIZES)
    def test_es(self, n, t):
        for seed in ORACLE_SEEDS:
            assert _same(
                random_es_schedule(n, t, seed), oracle.random_es_schedule(n, t, seed)
            ), seed

    @pytest.mark.parametrize("n, t", ORACLE_SIZES)
    def test_scs(self, n, t):
        for seed in ORACLE_SEEDS:
            assert _same(
                random_scs_schedule(n, t, seed),
                oracle.random_scs_schedule(n, t, seed),
            ), seed

    @pytest.mark.parametrize("n, t", ORACLE_SIZES)
    def test_serial(self, n, t):
        for seed in ORACLE_SEEDS:
            assert _same(
                random_serial_schedule(n, t, seed),
                oracle.random_serial_schedule(n, t, seed),
            ), seed

    @pytest.mark.parametrize("n, t", ORACLE_SIZES)
    def test_proposals(self, n, t):
        for seed in ORACLE_SEEDS:
            assert random_proposals(n, seed) == oracle.random_proposals(n, seed)
            assert random_proposals(n, seed, pool=3) == (
                oracle.random_proposals(n, seed, pool=3)
            )

    @pytest.mark.parametrize(
        "params",
        [
            {"sync_by": 1},
            {"sync_by": 3, "horizon": 7},
            {"sync_by": 30, "horizon": 9},
            {"max_crashes": 0},
            {"max_crashes": 1},
            {"max_crashes": 99},
            {"delay_span": 1},
            {"delay_span": 6, "horizon": 20},
            {"loss_prob": 0.0},
            {"loss_prob": 1.0},
            {"horizon": 30, "sync_by": 25, "delay_span": 4, "loss_prob": 0.6},
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("n, t", [(4, 1), (9, 4), (25, 8)])
    def test_es_with_non_default_parameters(self, n, t, params):
        for seed in range(40):
            assert _same(
                random_es_schedule(n, t, seed, **params),
                oracle.random_es_schedule(n, t, seed, **params),
            ), seed

    @pytest.mark.parametrize("params", [
        {"max_crashes": 0}, {"max_crashes": 2}, {"horizon": 3},
        {"horizon": 20, "max_crashes": 99},
    ], ids=repr)
    @pytest.mark.parametrize("mine, theirs", [
        (random_scs_schedule, oracle.random_scs_schedule),
        (random_serial_schedule, oracle.random_serial_schedule),
    ], ids=["scs", "serial"])
    def test_synchronous_with_non_default_parameters(
        self, mine, theirs, params
    ):
        for n, t in ORACLE_SIZES:
            for seed in range(40):
                try:
                    want = theirs(n, t, seed, **params)
                except ValueError:
                    # A serial schedule cannot crash more processes
                    # than it has rounds; both must refuse.
                    with pytest.raises(ValueError):
                        mine(n, t, seed, **params)
                    continue
                assert _same(mine(n, t, seed, **params), want), seed

    def test_es_at_n100(self):
        got = random_es_schedule(100, 32, 11, horizon=102)
        assert len(got.delays) > 10_000
        assert _same(got, oracle.random_es_schedule(100, 32, 11, horizon=102))

    def test_an_empty_delay_range_still_raises(self):
        # delay_span=0 leaves randint no round to draw; both refuse alike.
        for seed in range(20):
            try:
                oracle.random_es_schedule(5, 2, seed, delay_span=0)
            except ValueError:
                with pytest.raises(ValueError):
                    random_es_schedule(5, 2, seed, delay_span=0)
            else:
                assert _same(
                    random_es_schedule(5, 2, seed, delay_span=0),
                    oracle.random_es_schedule(5, 2, seed, delay_span=0),
                )
