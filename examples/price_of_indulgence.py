"""The headline experiment: how many rounds does indulgence cost?

Usage::

    python examples/price_of_indulgence.py

Reproduces the paper's central comparison on worst-case synchronous runs:

* FloodSet, designed for the synchronous model SCS, decides in t + 1
  rounds — but is *not* indulgent: one false suspicion breaks it.
* A_{t+2}, the paper's algorithm for the eventually synchronous model ES,
  decides in t + 2 rounds in every synchronous run — and Proposition 1
  shows no indulgent algorithm can do better.  The price is one round.
* The previously best indulgent algorithm (Hurfin–Raynal style) pays
  2t + 2.
"""

from repro import FloodSetWS, ScheduleBuilder, run_algorithm
from repro.analysis.experiments import price_of_indulgence, render
from repro.analysis.metrics import check_agreement


def why_not_floodset(n=3, t=1):
    """FloodSetWS disagrees under a single burst of false suspicions."""
    builder = ScheduleBuilder(n, t, 6)
    for k in (1, 2):
        builder.delay(0, 1, k, 3)
        builder.delay(0, 2, k, 3)
    schedule = builder.build()
    trace = run_algorithm(FloodSetWS, schedule, [0, 1, 1])
    return trace, check_agreement(trace)


def main():
    print(render(price_of_indulgence()))

    print("\nWhy not just run FloodSet in ES?  Because it is not indulgent:")
    trace, violations = why_not_floodset()
    print(f"  under false suspicions it decides {dict(trace.decisions)}")
    for violation in violations:
        print(f"  -> {violation}")
    print("  A_t+2 runs the same flood, plus one round that detects the")
    print("  false suspicion (|Halt| > t) and falls back safely.")


if __name__ == "__main__":
    main()
