"""Tests for the bounded exhaustive model checker."""

import pytest

from repro import ATt2, AFPlus2, FloodSetWS, HurfinRaynalES
from repro.lowerbound.adversary import AdversaryBudget
from repro.lowerbound.model_check import check_consensus_safety

SMALL = AdversaryBudget(
    max_crashes=1, crash_rounds=2, async_rounds=2, max_delays_per_round=1
)
DELAYS_ONLY = AdversaryBudget(
    max_crashes=0, crash_rounds=0, async_rounds=3, max_delays_per_round=1
)


class TestFindsKnownBugs:
    def test_floodset_ws_violation_found(self):
        """The checker discovers the indulgence failure automatically."""
        result = check_consensus_safety(
            FloodSetWS, [0, 1, 1], t=1, budget=SMALL
        )
        assert not result.safe
        assert any("agreement" in d for d in result.violation_detail)
        # The witness is a pure false-suspicion adversary or a tiny
        # crash+delay combination; either way it is ES-flavoured.
        assert result.violation is not None

    def test_floodset_ws_violation_without_crashes(self):
        """False suspicions alone are enough to break FloodSetWS."""
        result = check_consensus_safety(
            FloodSetWS, [0, 1, 1], t=1, budget=DELAYS_ONLY
        )
        assert not result.safe
        assert not result.violation.crashes

    def test_floodset_ws_safe_under_synchronous_budget(self):
        """With a zero asynchrony budget the same algorithm is safe."""
        synchronous = AdversaryBudget(
            max_crashes=1, crash_rounds=2, async_rounds=0,
            max_delays_per_round=0,
        )
        result = check_consensus_safety(
            FloodSetWS, [0, 1, 1], t=1, budget=synchronous
        )
        assert result.safe


class TestIndulgentAlgorithmsSurvive:
    @pytest.mark.parametrize(
        "name,factory",
        [
            ("att2", ATt2.factory()),
            ("hurfin_raynal", HurfinRaynalES),
        ],
    )
    def test_safe_within_small_budget(self, name, factory):
        result = check_consensus_safety(
            factory, [0, 1, 1], t=1, budget=SMALL, horizon=24
        )
        assert result.safe, (name, result.violation_detail)
        assert result.runs > 300
        assert result.decided_runs == result.runs

    def test_afp2_safe_within_budget(self):
        result = check_consensus_safety(
            AFPlus2, [0, 1, 2, 3], t=1, budget=DELAYS_ONLY, horizon=16
        )
        assert result.safe
        assert result.decided_runs == result.runs

    def test_att2_fast_path_bounds(self):
        # Within the delays-only budget, decisions range from t+2 (clean
        # enough prefixes) up to the fallback rounds.
        result = check_consensus_safety(
            ATt2.factory(), [0, 1, 1], t=1, budget=DELAYS_ONLY, horizon=24
        )
        assert result.safe
        assert result.best_global_round == 3  # t + 2
        assert result.worst_global_round > 3  # some runs hit C


class TestBudgetMechanics:
    def test_zero_budget_is_single_run(self):
        empty = AdversaryBudget(
            max_crashes=0, crash_rounds=0, async_rounds=0,
            max_delays_per_round=0,
        )
        result = check_consensus_safety(
            ATt2.factory(), [0, 1, 1], t=1, budget=empty
        )
        assert result.runs == 1
        assert result.worst_global_round == 3

    def test_crash_budget_respected(self):
        budget = AdversaryBudget(
            max_crashes=1, crash_rounds=1, async_rounds=0,
            max_delays_per_round=0,
        )
        result = check_consensus_safety(
            ATt2.factory(), [0, 1, 1], t=1, budget=budget
        )
        # no-crash + 3 crashers x 4 subsets = 13 schedules.
        assert result.runs == 13
