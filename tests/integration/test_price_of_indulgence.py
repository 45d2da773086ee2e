"""Integration: the paper's headline — the price of indulgence is one round.

Exhaustively over serial runs (small systems):

* FloodSet (SCS) globally decides at exactly t + 1 — the synchronous
  optimum;
* A_{t+2} (ES) globally decides at exactly t + 2 in *every* synchronous
  run — one round more, never less (Proposition 1 forbids less), never
  more (Lemma 13);
* the previously best indulgent baseline (Hurfin–Raynal) pays up to
  2t + 2.
"""

import pytest

from repro import ATt2, ADiamondS, FloodSet, HurfinRaynalES
from repro.lowerbound.model_check import worst_case_serial
from repro.workloads import coordinator_killer
from tests.conftest import run_and_check


class TestHeadlineBound:
    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1)])
    def test_floodset_exactly_t_plus_1(self, n, t):
        worst, _, best, _ = worst_case_serial(
            FloodSet, list(range(n)), t=t,
            crash_rounds_limit=t + 1, horizon=t + 4,
        )
        assert worst == best == t + 1

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1)])
    def test_att2_exactly_t_plus_2(self, n, t):
        worst, _, best, _ = worst_case_serial(
            ATt2.factory(), list(range(n)), t=t,
            crash_rounds_limit=t + 2, horizon=t + 9,
        )
        assert worst == best == t + 2

    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1)])
    def test_no_es_algorithm_beats_t_plus_2(self, n, t):
        """Proposition 1, checked on every implemented ES algorithm.

        Every indulgent algorithm we ship has *some* serial run deciding
        at round >= t + 2.
        """
        from tests.conftest import es_algorithm_params

        for name, factory in es_algorithm_params():
            worst, _, _, _ = worst_case_serial(
                factory, list(range(n)), t=t,
                crash_rounds_limit=t + 2, horizon=4 * t + 12,
            )
            assert worst >= t + 2, (name, worst)

    def test_hurfin_raynal_pays_2t_plus_2(self):
        n, t = 5, 2
        schedule = coordinator_killer(n, t, 2 * t + 6, rounds_per_cycle=2)
        hr = run_and_check(HurfinRaynalES, schedule, list(range(n)))
        att2 = run_and_check(ATt2.factory(), schedule, list(range(n)))
        asd = run_and_check(ADiamondS.factory(), schedule, list(range(n)))
        assert hr.global_decision_round() == 2 * t + 2
        assert att2.global_decision_round() == t + 2
        assert asd.global_decision_round() == t + 2


class TestPriceIsExactlyOneRound:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_gap_between_models(self, t):
        from repro import Schedule

        n = 2 * t + 1
        schedule = Schedule.failure_free(n, t, t + 6)
        floodset = run_and_check(FloodSet, schedule, list(range(n)))
        att2 = run_and_check(ATt2.factory(), schedule, list(range(n)))
        assert (
            att2.global_decision_round()
            - floodset.global_decision_round()
            == 1
        )
        assert floodset.decided_values() == att2.decided_values()
