"""E1b — bounded exhaustive safety checking against asynchronous adversaries.

Extends the E1 serial-run exhaustion with *asynchronous* adversaries:
every combination of (one crash with any delivery subset) × (delayed
messages in the first rounds) within the budget.  FloodSetWS — the t + 1
algorithm A_{t+2} is built from — violates agreement inside the budget;
every indulgent algorithm survives all of it.  The checker returns the
minimal-ish witness schedule, printed below.
"""

from repro import ATt2, ATt2Optimized, FloodSetWS, HurfinRaynalES
from repro.analysis.tables import format_table
from repro.lowerbound.adversary import AdversaryBudget
from repro.lowerbound.model_check import check_consensus_safety

from conftest import emit

BUDGET = AdversaryBudget(
    max_crashes=1, crash_rounds=2, async_rounds=2, max_delays_per_round=2
)


def census():
    rows = []
    witness = None
    for name, factory in (
        ("floodset_ws", FloodSetWS),
        ("att2", ATt2.factory()),
        ("att2_optimized", ATt2Optimized.factory()),
        ("hurfin_raynal", HurfinRaynalES),
    ):
        result = check_consensus_safety(
            factory, [0, 1, 1], t=1, budget=BUDGET, horizon=24
        )
        rows.append(
            (
                name,
                result.runs,
                "SAFE" if result.safe else "VIOLATED",
                result.best_global_round or "-",
                result.worst_global_round or "-",
            )
        )
        if not result.safe and witness is None:
            witness = result
    return rows, witness


def test_bounded_model_check(benchmark):
    rows, witness = benchmark.pedantic(census, rounds=1, iterations=1)
    emit(
        format_table(
            ["algorithm", "schedules checked", "safety", "best round",
             "worst round"],
            rows,
            title="E1b: exhaustive bounded-asynchrony safety check "
                  "(n=3, t=1)",
        )
    )
    if witness is not None:
        emit(
            "FloodSetWS witness adversary:\n"
            + witness.violation.describe()
            + "\n  -> " + "; ".join(witness.violation_detail)
        )
    by_name = {row[0]: row for row in rows}
    assert by_name["floodset_ws"][2] == "VIOLATED"
    for name in ("att2", "att2_optimized", "hurfin_raynal"):
        assert by_name[name][2] == "SAFE", name
        # Everything within the budget decided within the horizon.
