"""Print the experiment report: every table-shaped experiment (E5–E11).

Usage::

    python examples/experiments_report.py

Runs the paper's table-shaped experiments, each defined once in
:mod:`repro.analysis.experiments` (the benches in ``benchmarks/`` time
and assert the same tables), and prints each table with its paper
reference.
"""

from repro.analysis.experiments import all_experiments, render

PAPER_NOTES = {
    "E5": "Sections 1.3-1.4: t+1 (SCS) vs t+2 (ES) vs 2t+2 (prior best).",
    "E6": "Section 5.1 / Figure 3: the A_dS vs Hurfin-Raynal gap grows "
          "linearly in t.",
    "E7": "Section 5.2 / Figure 4: 2 rounds failure-free is optimal for "
          "well-behaved runs.",
    "E8": "Section 6 / Figure 5: A_f+2 decides by k+f+2; AMR needs "
          "k+2f+2 (footnote 10).",
    "E10": "Introduction: the resilience price — a correct majority is "
           "necessary.",
    "E11": "Section 4: ES simulates Diamond-P (and hence Diamond-S).",
}


def main():
    print("The inherent price of indulgence — experiment report")
    print("=" * 68)
    for table in all_experiments():
        print()
        print(render(table))
        note = PAPER_NOTES.get(table[0].split(":", 1)[0])
        if note:
            print(f"  paper: {note}")
    print()
    print("Exhaustive experiments (E1-E4, E9) and all assertions:")
    print("  pytest benchmarks/ --benchmark-only")


if __name__ == "__main__":
    main()
