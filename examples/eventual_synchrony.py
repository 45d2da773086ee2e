"""Eventual synchrony: A_{f+2} vs the leader-based AMR, and split-brain.

Usage::

    python examples/eventual_synchrony.py

Two experiments from the paper's Section 6 and introduction:

1. Runs that become synchronous after round k, with f crashes after k:
   A_{f+2} (t < n/3) globally decides by round k + f + 2, the two-step
   leader-based AMR by k + 2f + 2.
2. The resilience price: with t >= n/2, an ES-legal partition drives an
   indulgent algorithm into split-brain disagreement — the reason all of
   the above assumes a correct majority.
"""

from repro import ATt2, run_algorithm
from repro.analysis.experiments import eventual_fast_decision, render
from repro.analysis.metrics import check_agreement
from repro.workloads import partitioned_prefix


def split_brain(n=4, t=2):
    schedule = partitioned_prefix(n, t, 10, rounds=8, heal_at=10)
    factory = ATt2.factory(allow_unsafe_resilience=True)
    trace = run_algorithm(factory, schedule, [0, 0, 1, 1])
    return trace


def main():
    print(render(eventual_fast_decision()))
    print("\nA_f+2 halves the post-synchrony latency of the leader-based")
    print("baseline by folding leader election into the estimate flood.")

    print("\n--- The resilience price (t >= n/2) ---")
    trace = split_brain()
    print(f"partitioned halves decided: {dict(trace.decisions)}")
    for violation in check_agreement(trace):
        print(f"  -> {violation}")
    print("Each half saw n - t messages per round (ES-legal!), suspected")
    print("the other half, found |Halt| <= t — no evidence of false")
    print("suspicion — and confidently decided its own minimum.  This is")
    print("why indulgent consensus requires a correct majority.")


if __name__ == "__main__":
    main()
