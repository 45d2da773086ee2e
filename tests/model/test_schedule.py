"""Tests for schedules: construction, delivery semantics, classification."""

import pytest

from repro.errors import ScheduleError
from repro.model.schedule import CrashSpec, Schedule, ScheduleBuilder


class TestCrashSpec:
    def test_rejects_round_zero(self):
        with pytest.raises(ScheduleError, match="crash round"):
            CrashSpec(round=0)

    def test_rejects_overlapping_delivery_and_delay(self):
        with pytest.raises(ScheduleError, match="same-round and delayed"):
            CrashSpec(
                round=2,
                delivered_same_round=frozenset({1}),
                delayed=((1, 4),),
            )

    def test_rejects_delay_before_crash_round(self):
        with pytest.raises(ScheduleError, match="must exceed crash"):
            CrashSpec(round=3, delayed=((1, 3),))

    def test_rejects_duplicate_delayed_receiver(self):
        with pytest.raises(ScheduleError, match="duplicate receiver"):
            CrashSpec(round=1, delayed=((1, 2), (1, 3)))

    def test_delayed_delivery_lookup(self):
        spec = CrashSpec(round=1, delayed=((2, 4),))
        assert spec.delayed_delivery(2) == 4
        assert spec.delayed_delivery(1) is None


class TestScheduleBuilder:
    def test_rejects_bad_pid(self):
        builder = ScheduleBuilder(3, 1, 5)
        with pytest.raises(ScheduleError, match="out of range"):
            builder.crash(3, 1)

    def test_rejects_double_crash(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.crash(0, 1)
        with pytest.raises(ScheduleError, match="already crashes"):
            builder.crash(0, 2)

    def test_rejects_self_delay(self):
        builder = ScheduleBuilder(3, 1, 5)
        with pytest.raises(ScheduleError, match="self-delivery"):
            builder.delay(1, 1, 1, 2)

    def test_rejects_delay_not_after_send(self):
        builder = ScheduleBuilder(3, 1, 5)
        with pytest.raises(ScheduleError, match="must exceed"):
            builder.delay(0, 1, 2, 2)

    def test_rejects_delay_beyond_horizon(self):
        builder = ScheduleBuilder(3, 1, 5)
        with pytest.raises(ScheduleError, match="exceeds horizon"):
            builder.delay(0, 1, 1, 6)

    def test_rejects_delay_and_loss_conflict(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.delay(0, 1, 1, 2)
        with pytest.raises(ScheduleError, match="already delayed"):
            builder.lose(0, 1, 1)

    def test_rejects_loss_then_delay_conflict(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.lose(0, 1, 1)
        with pytest.raises(ScheduleError, match="already lost"):
            builder.delay(0, 1, 1, 2)

    def test_rejects_delays_from_crashed_sender(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.crash(0, 1)
        builder.delay(0, 1, 2, 3)
        with pytest.raises(ScheduleError, match="crashes in round"):
            builder.build()

    def test_rejects_crash_after_horizon(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.crash(0, 6)
        with pytest.raises(ScheduleError, match="after the horizon"):
            builder.build()

    def test_self_delivered_to_is_dropped(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.crash(0, 1, delivered_to=(0, 1))
        schedule = builder.build()
        assert schedule.crashes[0].delivered_same_round == frozenset({1})


class TestDeliverySemantics:
    def test_default_same_round(self):
        schedule = Schedule.failure_free(3, 1, 5)
        assert schedule.delivery_round(0, 1, 2) == 2

    def test_self_delivery_immediate(self):
        schedule = Schedule.failure_free(3, 1, 5)
        assert schedule.delivery_round(1, 1, 3) == 3

    def test_crashed_sender_sends_nothing_later(self):
        schedule = Schedule.synchronous(3, 1, 5, crashes={0: (2, [1])})
        assert schedule.delivery_round(0, 1, 3) is None
        assert schedule.delivery_round(0, 0, 3) is None

    def test_crash_round_partial_delivery(self):
        schedule = Schedule.synchronous(3, 1, 5, crashes={0: (2, [1])})
        assert schedule.delivery_round(0, 1, 2) == 2
        assert schedule.delivery_round(0, 2, 2) is None

    def test_crash_round_delayed_delivery(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.crash(0, 2, delivered_to=(1,), delayed={2: 4})
        schedule = builder.build()
        assert schedule.delivery_round(0, 2, 2) == 4

    def test_explicit_delay(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.delay(0, 1, 1, 3)
        schedule = builder.build()
        assert schedule.delivery_round(0, 1, 1) == 3
        assert schedule.delivery_round(0, 2, 1) == 1

    def test_explicit_loss(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.crash(0, 3)
        builder.lose(0, 1, 1)
        schedule = builder.build()
        assert schedule.delivery_round(0, 1, 1) is None

    def test_deliveries_to_collects_delayed(self):
        builder = ScheduleBuilder(3, 1, 5)
        builder.delay(0, 1, 1, 3)
        schedule = builder.build()
        arrivals = schedule.deliveries_to(1, 3)
        assert (0, 1) in arrivals
        assert (0, 3) in arrivals  # the round-3 message itself


class TestLifecyclePredicates:
    def test_sends_and_completes(self):
        schedule = Schedule.synchronous(3, 1, 6, crashes={1: (3, [])})
        assert schedule.sends_in_round(1, 3)
        assert not schedule.completes_round(1, 3)
        assert schedule.completes_round(1, 2)
        assert not schedule.sends_in_round(1, 4)

    def test_correct_and_faulty(self):
        schedule = Schedule.synchronous(4, 1, 6, crashes={2: (1, [])})
        assert schedule.faulty == frozenset({2})
        assert schedule.correct == frozenset({0, 1, 3})

    def test_crashed_in(self):
        schedule = Schedule.synchronous(4, 2, 6,
                                        crashes={2: (1, []), 3: (1, [])})
        assert schedule.crashed_in(1) == frozenset({2, 3})
        assert schedule.crashed_in(2) == frozenset()


class TestSynchronyClassification:
    def test_failure_free_is_synchronous(self):
        schedule = Schedule.failure_free(4, 1, 6)
        assert schedule.is_synchronous_run()
        assert schedule.sync_from() == 1

    def test_crashes_do_not_break_synchrony(self):
        schedule = Schedule.synchronous(4, 2, 6,
                                        crashes={0: (1, [1]), 1: (3, [])})
        assert schedule.is_synchronous_run()

    def test_delay_breaks_synchrony(self):
        builder = ScheduleBuilder(4, 1, 6)
        builder.delay(0, 1, 2, 4)
        schedule = builder.build()
        assert not schedule.is_synchronous_run()
        assert not schedule.is_synchronous_round(2)
        assert schedule.sync_from() == 3

    def test_crash_round_delay_keeps_round_synchronous(self):
        # Footnote 5: crash-round messages may be delayed even in
        # synchronous runs.
        builder = ScheduleBuilder(4, 1, 6)
        builder.crash(0, 2, delivered_to=(1,), delayed={2: 4})
        schedule = builder.build()
        assert schedule.is_synchronous_round(2)
        assert schedule.is_synchronous_run()

    def test_loss_breaks_synchrony(self):
        builder = ScheduleBuilder(4, 1, 6)
        builder.lose(0, 1, 3)
        schedule = builder.build()
        assert not schedule.is_synchronous_round(3)
        assert schedule.sync_from() == 4

    def test_serial_run(self):
        schedule = Schedule.synchronous(5, 2, 6,
                                        crashes={0: (1, []), 1: (2, [])})
        assert schedule.is_serial_run()

    def test_two_crashes_same_round_not_serial(self):
        schedule = Schedule.synchronous(5, 2, 6,
                                        crashes={0: (1, []), 1: (1, [])})
        assert schedule.is_synchronous_run()
        assert not schedule.is_serial_run()

    def test_too_many_crashes_not_serial(self):
        schedule = Schedule.synchronous(5, 1, 6,
                                        crashes={0: (1, []), 1: (2, [])})
        assert not schedule.is_serial_run()


class TestScheduleIdentity:
    def test_equality_and_hash(self):
        a = Schedule.synchronous(3, 1, 5, crashes={0: (1, [1])})
        b = Schedule.synchronous(3, 1, 5, crashes={0: (1, [1])})
        c = Schedule.synchronous(3, 1, 5, crashes={0: (1, [2])})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_with_horizon_extends(self):
        a = Schedule.synchronous(3, 1, 5, crashes={0: (1, [1])})
        b = a.with_horizon(9)
        assert b.horizon == 9
        assert b.crashes == a.crashes

    def test_with_horizon_cannot_cut_deliveries(self):
        builder = ScheduleBuilder(3, 1, 8)
        builder.delay(0, 1, 1, 7)
        schedule = builder.build()
        with pytest.raises(ScheduleError, match="shrink"):
            schedule.with_horizon(5)

    def test_with_horizon_cannot_cut_a_crash(self):
        schedule = ScheduleBuilder(4, 1, 10).crash(0, 8).build()
        with pytest.raises(ScheduleError, match="shrink.*crashes after"):
            schedule.with_horizon(5)

    def test_with_horizon_cannot_cut_a_crash_round_delivery(self):
        schedule = (
            ScheduleBuilder(4, 1, 10).crash(0, 4, delayed={2: 10}).build()
        )
        with pytest.raises(ScheduleError, match="shrink.*exceeds horizon"):
            schedule.with_horizon(8)
        assert schedule.with_horizon(10) == schedule

    def test_with_horizon_shrinks_to_the_last_event(self):
        builder = ScheduleBuilder(4, 1, 10)
        builder.crash(0, 4, delayed={2: 6}).delay(1, 3, 2, 5)
        assert builder.build().with_horizon(6).horizon == 6

    def test_describe_mentions_crashes_and_delays(self):
        builder = ScheduleBuilder(3, 1, 8)
        builder.crash(0, 2, delivered_to=(1,))
        builder.delay(1, 2, 1, 3)
        text = builder.build().describe()
        assert "p0 crashes in round 2" in text
        assert "delay" in text


class TestScheduleDigest:
    def test_equal_schedules_share_a_digest(self):
        a = Schedule.synchronous(3, 1, 5, crashes={0: (1, [1])})
        b = Schedule.synchronous(3, 1, 5, crashes={0: (1, [1])})
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_digest_separates_unequal_schedules(self):
        base = Schedule.failure_free(3, 1, 5)
        assert base.digest() != Schedule.failure_free(3, 1, 6).digest()
        assert base.digest() != Schedule.failure_free(4, 1, 5).digest()
        crashy = Schedule.synchronous(3, 1, 5, crashes={0: (1, [1])})
        assert base.digest() != crashy.digest()

    def test_digest_independent_of_construction_order(self):
        forward = ScheduleBuilder(4, 1, 8)
        forward.delay(0, 1, 1, 3).delay(2, 3, 2, 4).lose(1, 2, 1)
        backward = ScheduleBuilder(4, 1, 8)
        backward.lose(1, 2, 1).delay(2, 3, 2, 4).delay(0, 1, 1, 3)
        assert forward.build().digest() == backward.build().digest()

    def test_digest_is_stable_across_runs(self):
        # Pinned value: the digest is persisted in on-disk cache keys, so
        # it must never drift across processes or Python versions.
        assert Schedule.failure_free(3, 1, 8).digest() == (
            "e4e2589bc8bc2deb4fb880b2dbed19bf781ae997757f0545138d47fc4031a035"
        )

    #: Digests computed before the delay and loss components skipped the
    #: generic normalizer; cache keys embed them, so they must not move.
    PINNED = {
        "failure_free":
            "11fdf6e34e0a64f6b1a66817fa8e0db677a466a2125091232f70dae9cdb17109",
        "hand_built":
            "88978d7a91921c247c1e14bcfbe6f8234dece1d2a5de0c498bf6a73775241be8",
        "synchronous":
            "600b24846c4d12c09c0a05b94597a7c73e810a9c255ccee8b92c7c95c4d4bac6",
        "es_n9_seed3":
            "fa4fca470cf8e5171c2c8cf13e4447de771a9a19c966130d2d2f5c1c6f38302e",
        "scs_n9_seed3":
            "3db9c78b928ce2771ebc7439411ed3c9ad93360fcef6077efcaf8e99da3ee11b",
        "serial_n9_seed5":
            "7da73da51fd016199cc64560d830935bc117aee2c3f6b7b8f6219f80264a79b3",
        "es_n25_seed7":
            "0dd047e3bab758ea14a48f0735cefb75d12ed1db5bbb49214b6ddaa69318e0df",
    }

    def test_digests_are_pinned(self):
        from repro.sim.random_schedules import (
            random_es_schedule,
            random_scs_schedule,
            random_serial_schedule,
        )

        builder = ScheduleBuilder(5, 2, 9)
        builder.crash(0, 2, delivered_to=[1, 3], delayed={2: 4})
        builder.crash(4, 1)
        builder.delay(1, 2, 1, 3).delay(2, 3, 3, 5).lose(3, 1, 2)
        schedules = {
            "failure_free": Schedule.failure_free(4, 1, 6),
            "hand_built": builder.build(),
            "synchronous": Schedule.synchronous(
                3, 1, 5, crashes={0: (1, [1])}
            ),
            "es_n9_seed3": random_es_schedule(9, 4, 3),
            "scs_n9_seed3": random_scs_schedule(9, 4, 3),
            "serial_n9_seed5": random_serial_schedule(9, 4, 5),
            "es_n25_seed7": random_es_schedule(25, 12, 7, horizon=16),
        }
        assert {
            name: schedule.digest() for name, schedule in schedules.items()
        } == self.PINNED

    def test_digest_covers_every_crash_spec_field(self):
        # The digest is derived from _key() via a generic normalizer, so
        # every way two CrashSpecs can differ must separate the digests.
        def crashed(**kwargs):
            return Schedule(
                n=4, t=2, horizon=8, crashes={0: CrashSpec(**kwargs)}
            )

        variants = [
            crashed(round=2),
            crashed(round=3),
            crashed(round=2, delivered_same_round=frozenset({1})),
            crashed(round=2, delayed=((1, 4),)),
            crashed(round=2, delayed=((1, 5),)),
        ]
        digests = [schedule.digest() for schedule in variants]
        assert len(set(digests)) == len(digests)
