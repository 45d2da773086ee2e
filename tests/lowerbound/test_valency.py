"""Tests for valency computation (Lemma 2 / Lemma 5 dichotomy)."""

from repro import ATt2, FloodSet
from repro.lowerbound.adversary import CrashEvent
from repro.lowerbound.valency import classify_partial_runs, is_bivalent, valency


class TestValencyBasics:
    def test_unanimous_config_is_univalent(self):
        values = valency(FloodSet, [1, 1, 1], (), t=1, prefix_rounds=0,
                         crash_rounds_limit=2)
        assert values == frozenset({1})

    def test_mixed_config_bivalent_for_floodset(self):
        # [1, 1, 0]: crashing p2 in round 1 silently kills value 0.
        assert is_bivalent(FloodSet, [1, 1, 0], (), t=1, prefix_rounds=0,
                           crash_rounds_limit=2)

    def test_prefix_narrowing(self):
        # After p2 crashes in round 1 delivering to nobody, 0 is gone.
        events = (CrashEvent(round=1, pid=2, delivered_to=frozenset()),)
        values = valency(FloodSet, [1, 1, 0], events, t=1, prefix_rounds=1,
                         crash_rounds_limit=2)
        assert values == frozenset({1})

    def test_partial_delivery_preserves_value(self):
        events = (CrashEvent(round=1, pid=2, delivered_to=frozenset({0})),)
        values = valency(FloodSet, [1, 1, 0], events, t=1, prefix_rounds=1,
                         crash_rounds_limit=2)
        assert values == frozenset({0})


class TestLemmaTwoDichotomy:
    def test_floodset_t_round_runs_all_univalent(self):
        """FloodSet decides at t+1, so t-round runs must be univalent."""
        results = classify_partial_runs(
            FloodSet, [1, 1, 0], t=1, prefix_rounds=1, crash_rounds_limit=2
        )
        assert results
        for events, values in results:
            assert len(values) == 1, events

    def test_att2_t_plus_1_round_runs_all_univalent(self):
        """A_{t+2} decides at t+2, so (t+1)-round runs must be univalent."""
        results = classify_partial_runs(
            ATt2.factory(), [1, 1, 0], t=1, prefix_rounds=2
        )
        assert results
        for events, values in results:
            assert len(values) == 1, events

    def test_att2_initial_config_bivalent(self):
        """... while its 0-round 'partial run' is bivalent (Lemma 3)."""
        assert is_bivalent(ATt2.factory(), [1, 1, 0], (), t=1,
                           prefix_rounds=0)
