"""Compiled-kernel equivalence: plan structure, trace parity, lean metrics.

The compiled kernel (:mod:`repro.sim.compiled` + the rewritten
:func:`repro.sim.kernel.execute`) is only allowed to be *faster* than the
original query-at-a-time kernel — never observably different.  These
tests pin that down three ways:

* seeded random schedules (every generator in
  :mod:`repro.sim.random_schedules`) across every registered algorithm
  must produce **identical full traces** on both kernels;
* the lean trace mode must yield identical decisions and identical
  metrics (``summarize``, consensus checks, message counts);
* the compiled plan itself must be canonical (sorted inboxes, memoized
  per schedule) and must never leak into pickles, and it must equal,
  field by field, the plan of :func:`_dense_compile` — the original
  n² · horizon sweep of the oracle's ``delivery_round``, kept here as
  the oracle for the exception-driven compiler.
"""

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import make_automata
from repro.algorithms.registry import available_algorithms, get_factory
from repro.analysis.metrics import check_consensus, summarize
from repro.errors import SimulationError
from repro.model.schedule import CrashSpec, Schedule, ScheduleBuilder
from repro.sim.bitset import interned_set, iter_bits, mask_of
from repro.sim.compiled import CompiledSchedule, compile_schedule
from repro.sim.kernel import execute, run_algorithm
from repro.sim.random_schedules import (
    random_es_schedule,
    random_proposals,
    random_scs_schedule,
    random_serial_schedule,
)

from kernel_oracle import (
    completes_round,
    crashed_in,
    delay_rows_of,
    delayed_pairs,
    deliveries_to,
    delivery_round,
    execute_reference,
    sends_in_round,
    sync_from_by_scan,
)

SEEDS = range(25)


def _system_for(name: str) -> tuple[int, int]:
    # afp2 and amr_leader require t < n/3; everything else runs the
    # paper's standard (n, t) = (5, 2) majority configuration.
    return (7, 2) if name in ("afp2", "amr_leader") else (5, 2)


def _generators_for(name: str):
    info = available_algorithms()[name]
    if info.model == "SCS":
        return (random_scs_schedule, random_serial_schedule)
    return (random_es_schedule, random_scs_schedule, random_serial_schedule)


def _dense_compile(schedule: Schedule) -> CompiledSchedule:
    """The plan by brute force: one ``delivery_round`` query per
    (sender, receiver, round) triple, bucketed by delivery round."""
    n, horizon = schedule.n, schedule.horizon
    never = horizon + 1
    crash_at = [
        never if schedule.crash_round(pid) is None
        else schedule.crash_round(pid)
        for pid in range(n)
    ]
    senders, completers, crashed = [()], [()], [frozenset()]
    inboxes = [[[] for _ in range(n)] for _ in range(horizon + 1)]
    for k in range(1, horizon + 1):
        round_senders = tuple(
            pid for pid in range(n) if sends_in_round(schedule, pid, k)
        )
        round_completers = tuple(
            pid for pid in range(n) if completes_round(schedule, pid, k)
        )
        crashing = mask_of(p for p in range(n) if crash_at[p] == k)
        senders.append(round_senders)
        completers.append(round_completers)
        crashed.append(interned_set(crashing))
        for sender in round_senders:
            for receiver in range(n):
                delivery = delivery_round(schedule, sender, receiver, k)
                if delivery is None or delivery > horizon:
                    continue
                if crash_at[receiver] <= delivery:
                    continue
                inboxes[delivery][receiver].append((k, sender))

    delayed_inboxes, current_masks = [()], [()]
    for k in range(1, horizon + 1):
        delayed_row, mask_row = [], []
        for receiver in range(n):
            entries = sorted(inboxes[k][receiver])
            delayed_row.append(tuple(p for p in entries if p[0] != k))
            mask_row.append(mask_of(s for r, s in entries if r == k))
        delayed_inboxes.append(tuple(delayed_row))
        current_masks.append(tuple(mask_row))
    return CompiledSchedule(
        schedule=schedule, n=n, horizon=horizon,
        senders=tuple(senders), completers=tuple(completers),
        delayed_inboxes=tuple(delayed_inboxes),
        current_masks=tuple(current_masks),
        crashed=tuple(crashed),
    )


def _inbox(plan: CompiledSchedule, k: int, receiver: int) -> tuple:
    """*receiver*'s merged round-*k* plan: the canonically ordered
    ``(sent_round, sender)`` pairs, delayed ones first."""
    return delayed_pairs(plan.delayed_inboxes[k][receiver]) + tuple(
        (k, sender) for sender in iter_bits(plan.current_masks[k][receiver])
    )


def _assert_plan_matches_oracle(schedule: Schedule) -> None:
    """The plan equals the pair-shaped dense oracle once its delayed
    mask rows are expanded, and every delayed row is canonical: sent
    rounds strictly ascending, each with a non-zero sender mask."""
    plan = compile_schedule(schedule)
    oracle = _dense_compile(schedule)
    for field in fields(CompiledSchedule):
        if field.name == "delayed_inboxes":
            continue
        assert getattr(plan, field.name) == getattr(oracle, field.name), (
            f"{field.name} differs from the dense oracle"
        )
    expanded = tuple(
        tuple(delayed_pairs(row) for row in round_rows)
        for round_rows in plan.delayed_inboxes
    )
    assert expanded == oracle.delayed_inboxes, (
        "delayed_inboxes differs from the dense oracle"
    )
    for round_rows in plan.delayed_inboxes:
        for row in round_rows:
            sent_rounds = [sent for sent, _senders in row]
            assert sent_rounds == sorted(set(sent_rounds))
            assert all(senders > 0 for _sent, senders in row)


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_full_traces_identical_on_random_schedules(self, name):
        n, t = _system_for(name)
        for generator in _generators_for(name):
            for seed in SEEDS:
                schedule = generator(n, t, seed)
                proposals = random_proposals(n, seed)
                factory = get_factory(name)
                reference = execute_reference(
                    make_automata(factory, n, t, proposals), schedule
                )
                compiled = execute(
                    make_automata(factory, n, t, proposals), schedule,
                    trace="full",
                )
                assert compiled == reference, (
                    f"{name} diverged on {generator.__name__}(seed={seed})"
                )

    def test_halting_stop_parity(self):
        # Both kernels stop once every completer has halted, well before
        # a long horizon, and agree on the round they stop at.
        schedule = Schedule.failure_free(5, 2, 40)
        factory = get_factory("att2")
        reference = execute_reference(
            make_automata(factory, 5, 2, [1, 0, 1, 0, 1]), schedule,
        )
        compiled = execute(
            make_automata(factory, 5, 2, [1, 0, 1, 0, 1]), schedule,
        )
        assert compiled == reference
        assert compiled.rounds_executed < schedule.horizon

    def test_out_of_horizon_delivery_never_delivered(self):
        # Schedules built directly (bypassing the builder's validation)
        # may carry deliveries beyond the horizon; both kernels must
        # simply never deliver them.
        schedule = Schedule(
            n=3, t=1, horizon=4, delay_rows={(2, 1): {9: 1 << 0}}
        )
        factory = get_factory("att2")
        reference = execute_reference(
            make_automata(factory, 3, 1, [0, 1, 1]), schedule
        )
        compiled = execute(
            make_automata(factory, 3, 1, [0, 1, 1]), schedule, trace="full"
        )
        assert compiled == reference


class TestPhase1PlaneDispatch:
    """The batched Phase-1 plane: when it engages, and that engaging it
    never changes a trace (per-algorithm byte-identity for the batched
    kernel path)."""

    PLANE_ALGORITHMS = ("att2", "att2_optimized", "floodset_ws",
                        "adiamond_s", "chandra_toueg")

    #: (n, t, seeds): claimed and per-receiver plane rounds at three
    #: widths, fewer seeds where the reference kernel is slow.
    SYSTEMS = ((5, 2, SEEDS[:10]), (9, 4, SEEDS[:6]), (25, 8, SEEDS[:3]))

    @pytest.mark.parametrize("trace", ["full", "lean"])
    @pytest.mark.parametrize(
        "generator", [random_es_schedule, random_scs_schedule],
        ids=["es", "scs"],
    )
    @pytest.mark.parametrize(
        "n, t, seeds", SYSTEMS, ids=[f"n{n}" for n, _t, _s in SYSTEMS]
    )
    @pytest.mark.parametrize("name", PLANE_ALGORITHMS)
    def test_plane_engages_and_matches_reference(
        self, name, n, t, seeds, generator, trace
    ):
        factory = get_factory(name)
        for seed in seeds:
            schedule = generator(n, t, seed)
            proposals = random_proposals(n, seed)
            automata = make_automata(factory, n, t, proposals)
            compiled = execute(automata, schedule, trace=trace)
            assert all(a._plane is not None for a in automata), name
            reference = execute_reference(
                make_automata(factory, n, t, proposals), schedule
            )
            if trace == "lean":
                reference = replace(reference, rounds=None)
            assert compiled == reference, f"{name} diverged on seed {seed}"

    @pytest.mark.parametrize(
        "name", ["hurfin_raynal", "floodset", "early_deciding"]
    )
    def test_non_declaring_algorithms_get_no_plane(self, name):
        automata = make_automata(
            get_factory(name), 5, 2, [3, 1, 4, 1, 5]
        )
        execute(automata, Schedule.failure_free(5, 2, 12))
        assert type(automata[0]).plane_rounds(2) is None
        assert all(a._plane is None for a in automata)

    def test_opted_out_run_is_byte_identical(self):
        from repro.core.att2 import ATt2

        class OptOut(ATt2):
            @classmethod
            def plane_rounds(cls, t):
                return None

        for seed in SEEDS[:10]:
            schedule = random_es_schedule(5, 2, seed)
            proposals = random_proposals(5, seed)
            batched_automata = make_automata(ATt2.factory(), 5, 2, proposals)
            batched = execute(batched_automata, schedule, trace="full")
            oracle_automata = make_automata(OptOut.factory(), 5, 2, proposals)
            oracle = execute(oracle_automata, schedule, trace="full")
            assert all(a._plane is None for a in oracle_automata)
            assert batched == oracle, f"plane changed the trace (seed {seed})"

    def test_mixed_run_disables_plane_and_stays_identical(self):
        from repro.core.att2 import ATt2

        class OptOut(ATt2):
            @classmethod
            def plane_rounds(cls, t):
                return None

        schedule = random_es_schedule(5, 2, 7)
        proposals = random_proposals(5, 7)
        mixed = [
            (OptOut if pid == 2 else ATt2)(pid, 5, 2, proposals[pid])
            for pid in range(5)
        ]
        compiled = execute(mixed, schedule, trace="full")
        assert all(a._plane is None for a in mixed)
        reference = execute_reference(
            make_automata(ATt2.factory(), 5, 2, proposals), schedule
        )
        assert compiled == reference


class TestLeanTraceMetrics:
    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_lean_and_full_metrics_identical(self, name):
        # Every registered algorithm, on every generator its model
        # admits: one kernel loop serves both modes, and the FloodSet
        # family's announce_decision=False halting is covered too.
        n, t = _system_for(name)
        factory = get_factory(name)
        for generator in _generators_for(name):
            for seed in SEEDS:
                schedule = generator(n, t, seed, horizon=14)
                proposals = random_proposals(n, seed)
                full = run_algorithm(
                    factory, schedule, proposals, trace="full"
                )
                lean = run_algorithm(
                    factory, schedule, proposals, trace="lean"
                )
                assert replace(full, rounds=None) == lean
                assert dict(lean.decisions) == dict(full.decisions)
                assert lean.rounds_executed == full.rounds_executed
                assert lean.message_count() == full.message_count()
                assert dict(lean.halted_rounds) == {
                    pid: record.round
                    for record in full.rounds
                    for pid in record.halted
                }
                assert summarize(lean) == summarize(full)
                assert check_consensus(
                    lean, expect_termination=False
                ) == check_consensus(full, expect_termination=False)

    def test_lean_halt_rounds_match_full_trace(self):
        factory = get_factory("att2")
        schedule = Schedule.synchronous(5, 2, 12, crashes={0: (1, [1])})
        full = run_algorithm(factory, schedule, [3, 1, 4, 1, 5])
        lean = run_algorithm(
            factory, schedule, [3, 1, 4, 1, 5], trace="lean"
        )
        halted_full = {
            pid: record.round
            for record in full.rounds
            for pid in record.halted
        }
        assert dict(lean.halted_rounds) == halted_full

    def test_lean_trace_surface(self):
        factory = get_factory("att2")
        schedule = Schedule.failure_free(3, 1, 10)
        lean = run_algorithm(factory, schedule, [2, 0, 2], trace="lean")
        assert lean.n == 3 and lean.t == 1
        assert lean.deciders() == frozenset({0, 1, 2})
        assert lean.decided_values() == {lean.decision_value(0)}
        assert lean.decision_round(0) == lean.first_decision_round()
        assert lean.alive_at_end() == frozenset({0, 1, 2})
        assert lean.crash_rounds() == {}
        assert "decisions" in lean.describe()

    def test_unknown_trace_mode_rejected(self):
        factory = get_factory("att2")
        schedule = Schedule.failure_free(3, 1, 4)
        with pytest.raises(SimulationError, match="unknown trace mode"):
            run_algorithm(factory, schedule, [0, 1, 2], trace="verbose")


class TestCompiledPlan:
    def test_plan_is_memoized_per_schedule(self):
        schedule = random_es_schedule(5, 2, 7)
        assert compile_schedule(schedule) is compile_schedule(schedule)

    def test_inboxes_are_canonically_sorted(self):
        schedule = random_es_schedule(6, 2, 11, horizon=10)
        plan = compile_schedule(schedule)
        for k in range(1, plan.horizon + 1):
            for receiver in range(plan.n):
                entries = _inbox(plan, k, receiver)
                assert list(entries) == sorted(entries)

    def test_plan_matches_schedule_queries(self):
        schedule = random_es_schedule(5, 2, 13, horizon=10)
        plan = compile_schedule(schedule)
        for k in range(1, schedule.horizon + 1):
            assert plan.senders[k] == tuple(
                pid for pid in range(5) if sends_in_round(schedule, pid, k)
            )
            assert plan.completers[k] == tuple(
                pid for pid in range(5) if completes_round(schedule, pid, k)
            )
            assert plan.crashed[k] == crashed_in(schedule, k)
            for receiver in range(5):
                if not completes_round(schedule, receiver, k):
                    continue
                assert set(_inbox(plan, k, receiver)) == {
                    (sent, sender)
                    for sender, sent in deliveries_to(schedule, receiver, k)
                }

    def test_sync_from_matches_per_round_scan(self):
        # sync_from reads only the delay and loss tables; the per-round
        # oracle's is_synchronous_round scan over every message is the
    # reference.
        for generator in (random_es_schedule, random_scs_schedule):
            for seed in SEEDS:
                schedule = generator(5, 2, seed, horizon=10)
                assert schedule.sync_from() == sync_from_by_scan(schedule)
                assert schedule.is_synchronous_run() == (
                    sync_from_by_scan(schedule) == 1
                )

    def test_caches_never_pickled(self):
        schedule = random_es_schedule(5, 2, 19)
        compile_schedule(schedule)
        schedule.digest()
        schedule.sync_from()
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert "_compiled_cache" not in clone.__dict__
        assert "_digest_cache" not in clone.__dict__
        assert "_sync_from_cache" not in clone.__dict__
        # and the clone still works end to end
        factory = get_factory("att2")
        assert run_algorithm(
            factory, clone, [0, 1, 0, 1, 1], trace="lean"
        ).decisions == run_algorithm(
            factory, schedule, [0, 1, 0, 1, 1], trace="lean"
        ).decisions


GENERATOR_SYSTEMS = [
    pytest.param(generator, n, t, id=f"{generator.__name__}-n{n}")
    for generator in (
        random_es_schedule, random_scs_schedule, random_serial_schedule
    )
    for n, t in ((4, 1), (9, 4), (25, 12))
]


class TestPlanMatchesDenseOracle:
    """The exception-driven compiler against the brute-force sweep."""

    @pytest.mark.parametrize("generator,n,t", GENERATOR_SYSTEMS)
    def test_generated_schedules(self, generator, n, t):
        for seed in range(12):
            _assert_plan_matches_oracle(
                generator(n, t, seed, horizon=max(8, t + 4))
            )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_direct_schedules(self, data):
        # Directly constructed schedules skip the builder's checks, so
        # they can name self-deliveries, a sender's crash round or later
        # rounds, rounds past the horizon, and delays that also appear
        # among the losses.  Delays never deliver before the send round.
        n = data.draw(st.integers(2, 6), label="n")
        horizon = data.draw(st.integers(1, 6), label="horizon")
        pid = st.integers(0, n - 1)
        k = st.integers(1, horizon + 1)
        crashes = {}
        for crasher in data.draw(st.sets(pid), label="crashers"):
            round_ = data.draw(k)
            delayed = data.draw(st.dictionaries(
                pid, st.integers(round_ + 1, horizon + 2), max_size=n
            ))
            crashes[crasher] = CrashSpec(
                round=round_,
                delivered_same_round=data.draw(st.frozensets(pid))
                - set(delayed),
                delayed=tuple(sorted(delayed.items())),
            )
        triple = st.tuples(pid, pid, k)
        delays = {
            key: key[2] + data.draw(st.integers(0, 3))
            for key in data.draw(st.sets(triple, max_size=12))
        }
        losses = data.draw(st.frozensets(triple, max_size=8))
        schedule = Schedule(
            n=n, t=n - 1, horizon=horizon, crashes=crashes,
            delay_rows=delay_rows_of(delays), losses=losses,
        )
        _assert_plan_matches_oracle(schedule)
        assert schedule.sync_from() == sync_from_by_scan(schedule)

    def test_crash_in_round_one(self):
        builder = ScheduleBuilder(5, 2, 6)
        builder.crash(0, 1, delivered_to=[2], delayed={3: 2})
        builder.crash(1, 1)
        _assert_plan_matches_oracle(builder.build())

    def test_crash_delayed_past_horizon_or_to_crashed_receiver(self):
        # Receiver 2 crashes in round 3, before the round-4 delivery;
        # receiver 4's delivery lies past the horizon.
        schedule = Schedule(
            n=5, t=2, horizon=5,
            crashes={
                0: CrashSpec(round=2, delayed=((2, 4), (3, 3), (4, 7))),
                2: CrashSpec(round=3),
            },
        )
        _assert_plan_matches_oracle(schedule)
        plan = compile_schedule(schedule)
        assert plan.delayed_inboxes[3][3] == ((2, 1 << 0),)
        assert all(not plan.delayed_inboxes[4][r] for r in range(5))

    def test_delay_to_receiver_crashing_before_delivery(self):
        builder = ScheduleBuilder(5, 2, 8)
        builder.crash(2, 4)
        builder.delay(0, 2, 1, 4)  # lands in 2's crash round: dropped
        builder.delay(1, 2, 2, 3)  # lands before it: delivered
        builder.delay(1, 3, 2, 6)
        schedule = builder.build()
        _assert_plan_matches_oracle(schedule)
        plan = compile_schedule(schedule)
        assert plan.delayed_inboxes[3][2] == ((2, 1 << 1),)
        assert plan.delayed_inboxes[4][2] == ()

    def test_loss_to_receiver_crashing_in_the_send_round(self):
        builder = ScheduleBuilder(5, 2, 6)
        builder.crash(3, 2)
        builder.lose(0, 3, 2)
        builder.lose(1, 4, 2)
        _assert_plan_matches_oracle(builder.build())

    def test_exceptions_at_or_after_the_senders_crash_round(self):
        # delivery_round ignores these entries; so must the compiler.
        schedule = Schedule(
            n=4, t=1, horizon=6,
            crashes={
                0: CrashSpec(round=3, delivered_same_round=frozenset({1}))
            },
            delay_rows=delay_rows_of(
                {(0, 1, 3): 5, (0, 2, 4): 6, (1, 2, 2): 4}
            ),
            losses=frozenset({(0, 1, 3), (0, 3, 5), (2, 3, 1)}),
        )
        _assert_plan_matches_oracle(schedule)
        plan = compile_schedule(schedule)
        assert plan.current_masks[3][1] & (1 << 0)
        assert plan.delayed_inboxes[5][1] == ()
        assert plan.delayed_inboxes[4][2] == ((2, 1 << 1),)

    def test_exception_free_rounds_share_rows(self):
        plan = compile_schedule(Schedule.failure_free(6, 2, 9))
        row = plan.current_masks[1]
        assert all(other is row for other in plan.current_masks[1:])
        assert row == (mask_of(range(6)),) * 6
        assert all(
            delayed is plan.delayed_inboxes[1]
            for delayed in plan.delayed_inboxes[1:]
        )


class TestRecordEquivalencePerAlgorithm:
    """Acceptance: every registered algorithm's sweep records are
    byte-identical across the view kernel (both trace modes) and the
    preserved reference pipeline, over seeded random schedules."""

    @staticmethod
    def _reference_record(name, workload, schedule, proposals):
        from repro.analysis.metrics import check_agreement, check_validity
        from repro.analysis.sweep import SweepRecord

        factory = get_factory(name)
        trace = execute_reference(
            make_automata(factory, schedule.n, schedule.t, proposals),
            schedule,
        )
        return SweepRecord(
            algorithm=name,
            workload=workload,
            n=schedule.n,
            t=schedule.t,
            crashes=len(schedule.crashes),
            sync_from=sync_from_by_scan(schedule),
            global_round=trace.global_decision_round(),
            first_round=trace.first_decision_round(),
            deciders=len(trace.decisions),
            agreement_ok=not check_agreement(trace),
            validity_ok=not check_validity(trace),
            messages=trace.message_count(),
            horizon=schedule.horizon,
            correct_undecided=sum(
                1 for pid in schedule.correct if pid not in trace.decisions
            ),
        )

    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_lean_and_full_records_match_reference_pipeline(self, name):
        from repro.analysis.sweep import case_record, run_case

        n, t = _system_for(name)
        factory = get_factory(name)
        for generator in _generators_for(name):
            for seed in range(8):
                schedule = generator(n, t, seed)
                proposals = random_proposals(n, seed)
                expected = self._reference_record(
                    name, generator.__name__, schedule, proposals
                )
                record, lean = run_case(
                    name, factory, generator.__name__, schedule, proposals,
                )
                full = run_algorithm(
                    factory, schedule, proposals, trace="full"
                )
                assert record == expected, (
                    f"{name} record diverged on "
                    f"{generator.__name__}(seed={seed})"
                )
                assert case_record(
                    name, generator.__name__, full
                ) == expected
                assert replace(full, rounds=None) == lean
