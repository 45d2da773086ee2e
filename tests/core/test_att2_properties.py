"""Property-based tests for A_{t+2}: the paper's lemmas on random runs.

* consensus (validity/agreement/termination) over random ES schedules;
* the **elimination property** (Lemma 6): at most one distinct non-⊥ new
  estimate is ever sent in round t + 2;
* **Claim 13.1**: in synchronous runs, every process that lands in some
  Halt set has actually crashed — no false positives;
* **fast decision** (Lemma 13) over random synchronous schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ATt2, ATt2Optimized
from repro.analysis.metrics import check_consensus
from repro.core.att2 import NEWESTIMATE
from repro.sim.bitset import iter_bits
from repro.sim.kernel import run_algorithm
from repro.sim.random_schedules import (
    random_es_schedule,
    random_proposals,
    random_scs_schedule,
)
from repro.types import is_bottom

SYSTEMS = st.sampled_from([(3, 1), (5, 2), (7, 3)])


def new_estimates_sent(trace):
    """All new-estimate values broadcast in round t + 2."""
    t = trace.t
    if trace.rounds_executed < t + 2:
        return []
    record = trace.record(t + 2)
    return [
        payload[2]
        for payload in record.sent.values()
        if payload is not None and payload[0] == NEWESTIMATE
    ]


def halt_sets_sent(trace, upto):
    """(sender, round, halt) triples from Phase-1 ESTIMATE payloads."""
    out = []
    for k in range(1, min(upto, trace.rounds_executed) + 1):
        for pid, payload in trace.record(k).sent.items():
            if payload is not None and payload[0] == "ESTIMATE":
                out.append((pid, k, payload[3]))
    return out


class TestConsensusOnRandomES:
    @given(seed=st.integers(0, 50_000), system=SYSTEMS)
    @settings(max_examples=80, deadline=None)
    def test_consensus_holds(self, seed, system):
        n, t = system
        schedule = random_es_schedule(n, t, seed, horizon=8 + 6 * n,
                                      sync_by=6)
        trace = run_algorithm(
            ATt2.factory(), schedule, random_proposals(n, seed)
        )
        problems = check_consensus(trace, expect_termination=False)
        assert not problems, (seed, problems)

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_termination_with_synchronous_suffix(self, seed):
        n, t = 5, 2
        schedule = random_es_schedule(n, t, seed, horizon=40, sync_by=5)
        trace = run_algorithm(
            ATt2.factory(), schedule, random_proposals(n, seed)
        )
        problems = check_consensus(trace, expect_termination=True)
        assert not problems, (seed, problems, trace.describe())


class TestEliminationProperty:
    @given(seed=st.integers(0, 50_000), system=SYSTEMS)
    @settings(max_examples=80, deadline=None)
    def test_at_most_one_non_bottom_new_estimate(self, seed, system):
        n, t = system
        schedule = random_es_schedule(n, t, seed, horizon=8 + 6 * n,
                                      sync_by=6)
        trace = run_algorithm(
            ATt2.factory(), schedule, random_proposals(n, seed)
        )
        non_bottom = {
            v for v in new_estimates_sent(trace) if not is_bottom(v)
        }
        assert len(non_bottom) <= 1, (seed, non_bottom)


class TestHaltClaimInSynchronousRuns:
    @given(seed=st.integers(0, 50_000), system=SYSTEMS)
    @settings(max_examples=80, deadline=None)
    def test_halt_members_have_crashed(self, seed, system):
        """Claim 13.1: synchronous suspicion is always backed by a crash."""
        n, t = system
        schedule = random_scs_schedule(n, t, seed, horizon=t + 6)
        trace = run_algorithm(
            ATt2.factory(), schedule, random_proposals(n, seed)
        )
        crash_rounds = trace.crash_rounds()
        for sender, k, halt in halt_sets_sent(trace, t + 2):
            del sender
            for suspect in iter_bits(halt):
                crash = crash_rounds.get(suspect)
                assert crash is not None and crash < k, (
                    seed, suspect, k, halt,
                )

    @given(seed=st.integers(0, 50_000), system=SYSTEMS)
    @settings(max_examples=60, deadline=None)
    def test_fast_decision_on_random_synchronous_runs(self, seed, system):
        n, t = system
        schedule = random_scs_schedule(n, t, seed, horizon=t + 6)
        trace = run_algorithm(
            ATt2.factory(), schedule, random_proposals(n, seed)
        )
        assert trace.global_decision_round() == t + 2, (
            seed, trace.describe(),
        )
        assert not check_consensus(trace)


class TestOptimizedVariantProperties:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_optimized_consensus_on_random_es(self, seed):
        n, t = 5, 2
        schedule = random_es_schedule(n, t, seed, horizon=40, sync_by=5)
        trace = run_algorithm(
            ATt2Optimized.factory(), schedule, random_proposals(n, seed)
        )
        problems = check_consensus(trace, expect_termination=False)
        assert not problems, (seed, problems)

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_optimized_fast_decision_on_synchronous_runs(self, seed):
        n, t = 5, 2
        schedule = random_scs_schedule(n, t, seed, horizon=t + 6)
        trace = run_algorithm(
            ATt2Optimized.factory(), schedule, random_proposals(n, seed)
        )
        assert trace.global_decision_round() <= t + 2
        assert not check_consensus(trace)
