"""Tests for bivalent configuration search (Lemmas 3 and 4)."""

import pytest

from repro import ATt2, FloodSet, HurfinRaynalES
from repro.lowerbound.bivalency import (
    chain_configurations,
    find_bivalent_initial,
    find_bivalent_serial_prefix,
    initial_valencies,
)


class TestChainConfigurations:
    def test_shape(self):
        chains = chain_configurations(3)
        assert chains == [
            [0, 0, 0],
            [1, 0, 0],
            [1, 1, 0],
            [1, 1, 1],
        ]


class TestLemmaThree:
    """Some initial configuration is bivalent — for every algorithm."""

    def test_att2_has_bivalent_initial(self):
        assert find_bivalent_initial(ATt2.factory(), 3, 1) is not None

    def test_floodset_has_bivalent_initial(self):
        assert (
            find_bivalent_initial(FloodSet, 3, 1, crash_rounds_limit=2)
            is not None
        )

    def test_hurfin_raynal_has_bivalent_initial(self):
        assert (
            find_bivalent_initial(
                HurfinRaynalES, 3, 1, crash_rounds_limit=4
            )
            is not None
        )

    def test_endpoints_are_univalent(self):
        valencies = initial_valencies(ATt2.factory(), 3, 1)
        all_zero, all_one = valencies[0], valencies[-1]
        assert all_zero[1] == frozenset({0})  # validity pins C_0 ...
        assert all_one[1] == frozenset({1})  # ... and C_n

    def test_adjacent_univalent_configs_share_valency(self):
        """The Lemma-3 argument itself: valency flips only via bivalence."""
        valencies = initial_valencies(ATt2.factory(), 3, 1)
        for (_, left), (_, right) in zip(valencies, valencies[1:]):
            if len(left) == 1 and len(right) == 1 and left != right:
                pytest.fail(
                    "adjacent univalent configurations with opposite "
                    f"valencies: {valencies}"
                )


class TestLemmaFour:
    """A bivalent (t-1)-round serial partial run exists (trivial for t=1)."""

    def test_t_minus_1_prefix_for_t1_is_initial_config(self):
        proposals = find_bivalent_initial(ATt2.factory(), 3, 1)
        prefix = find_bivalent_serial_prefix(
            ATt2.factory(), proposals, t=1, target_round=0
        )
        assert prefix == ()

    def test_bivalent_one_round_prefix_with_larger_t(self):
        # n=5, t=2: Lemma 4 promises a bivalent 1-round serial partial
        # run.  The full search is bench territory
        # (benchmarks/bench_valency.py); here we verify the canonical
        # witness: p0 (holding the hidden minimum) crashes in round 1
        # delivering only to p1 — the carrier's fate stays undecided.
        from repro.lowerbound.adversary import CrashEvent
        from repro.lowerbound.valency import is_bivalent

        witness = (
            CrashEvent(round=1, pid=0, delivered_to=frozenset({1})),
        )
        assert is_bivalent(
            ATt2.factory(), [0, 1, 1, 1, 1], witness, t=2, prefix_rounds=1
        )

    def test_no_bivalent_t_round_prefix_for_floodset(self):
        """Lemma 2's contrapositive for the t+1-decider in SCS."""
        proposals = find_bivalent_initial(
            FloodSet, 3, 1, crash_rounds_limit=2
        )
        prefix = find_bivalent_serial_prefix(
            FloodSet, proposals, t=1, target_round=1, crash_rounds_limit=2
        )
        assert prefix is None
