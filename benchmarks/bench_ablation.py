"""Ablations of A_{t+2} design choices: the DECIDE relay and the plug-in C.

1. **DECIDE relay**: adopters re-broadcast the decision once before
   halting.  Under a delayed original announcement, relaying saves rounds
   for late receivers; without it they wait for the crawling original (or
   their own fallback consensus).  Safety is unaffected either way.
2. **Underlying consensus plug-in**: the fallback latency after an
   asynchronous Phase 1 depends on C (Hurfin–Raynal-style C is one cycle
   shorter than Chandra–Toueg-style C), while the synchronous fast path
   is identical — the paper's point that fast decision is independent
   of C.
"""

from repro import ATt2, ChandraTouegES, HurfinRaynalES
from repro.analysis.tables import format_table
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm

from conftest import emit


class ATt2NoRelay(ATt2):
    relay_decision = False


def delayed_announcement_schedule(horizon=16):
    builder = ScheduleBuilder(3, 1, horizon)
    for k in (1, 2):
        builder.delay(0, 1, k, 3)
        builder.delay(0, 2, k, 3)
    builder.delay(0, 1, 3, 5)
    builder.delay(1, 2, 4, 14)
    return builder.build()


def relay_ablation():
    schedule = delayed_announcement_schedule()
    with_relay = run_algorithm(ATt2.factory(), schedule, [0, 1, 1])

    def no_relay_factory(pid, n, t, proposal):
        return ATt2NoRelay(pid, n, t, proposal)

    without = run_algorithm(no_relay_factory, schedule, [0, 1, 1])
    return with_relay, without


def test_decide_relay_ablation(benchmark):
    with_relay, without = benchmark(relay_ablation)
    rows = [
        ("relay on", with_relay.decision_round(2),
         with_relay.global_decision_round()),
        ("relay off", without.decision_round(2),
         without.global_decision_round()),
    ]
    emit(
        format_table(
            ["variant", "p2 decision round", "global round"],
            rows,
            title="Ablation: DECIDE relay under a delayed announcement",
        )
    )
    assert with_relay.decision_round(2) < without.decision_round(2)
    assert with_relay.decided_values() == without.decided_values()


def fallback_latency():
    """Asynchronous Phase 1 forcing the C fallback, per underlying C."""
    def all_bottom_schedule(horizon=24):
        builder = ScheduleBuilder(3, 1, horizon)
        builder.delay(1, 0, 1, 3)
        builder.delay(2, 1, 1, 3)
        builder.delay(0, 2, 1, 3)
        builder.delay(2, 0, 2, 3)
        builder.delay(0, 1, 2, 3)
        builder.delay(1, 2, 2, 3)
        return builder.build()

    results = {}
    for name, underlying in (
        ("chandra_toueg_C", ChandraTouegES),
        ("hurfin_raynal_C", HurfinRaynalES),
    ):
        trace = run_algorithm(
            ATt2.factory(underlying), all_bottom_schedule(), [4, 5, 6]
        )
        results[name] = trace.global_decision_round()
    return results


def test_underlying_consensus_ablation(benchmark):
    results = benchmark(fallback_latency)
    emit(
        format_table(
            ["underlying C", "global round after ⊥-fallback"],
            list(results.items()),
            title="Ablation: fallback latency by underlying consensus",
        )
    )
    # HR's 2-round cycles beat CT's 3-round cycles in the fallback.
    assert results["hurfin_raynal_C"] < results["chandra_toueg_C"]
