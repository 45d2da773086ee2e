"""Delay rows: the one stored delay table of a schedule.

A :class:`~repro.model.schedule.Schedule` stores its delayed messages as
rows, ``(sent_round, receiver) -> {delivery round: sender mask}``.
:meth:`ScheduleBuilder.delay` writes one bit of a row and
:meth:`ScheduleBuilder.delay_row` a whole row; ``Schedule.delays`` is the
per-message view derived from the rows.  These tests hold the two
writers to one meaning, keep the builder's checks, and hold
``sync_from`` (which reads rows) to the oracle's scan over every message.
"""

import random

import pytest

from repro.errors import ScheduleError
from repro.model.schedule import Schedule, ScheduleBuilder
from repro.sim.random_schedules import random_es_schedule, random_scs_schedule

from kernel_oracle import delay_rows_of, sync_from_by_scan


def _random_delays(n, horizon, seed, count=40):
    """A seeded ``{(sender, receiver, sent): delivery}`` table of legal
    delays (distinct messages, delivery after the send round)."""
    rng = random.Random(seed)
    delays = {}
    while len(delays) < count:
        sender, receiver = rng.sample(range(n), 2)
        sent = rng.randint(1, horizon - 1)
        delays[sender, receiver, sent] = rng.randint(sent + 1, horizon)
    return delays


def _by_messages(n, horizon, delays):
    builder = ScheduleBuilder(n, n - 1, horizon)
    for (sender, receiver, sent), delivery in delays.items():
        builder.delay(sender, receiver, sent, delivery)
    return builder.build()


def _by_rows(n, horizon, delays):
    builder = ScheduleBuilder(n, n - 1, horizon)
    for (sent, receiver), row in delay_rows_of(delays).items():
        builder.delay_row(sent, receiver, row)
    return builder.build()


class TestRowWriter:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_one_delay_per_message(self, seed):
        delays = _random_delays(7, 9, seed)
        by_rows = _by_rows(7, 9, delays)
        by_messages = _by_messages(7, 9, delays)
        assert by_rows == by_messages
        assert by_rows.digest() == by_messages.digest()
        assert by_rows.delay_rows == by_messages.delay_rows
        assert dict(by_rows.delays) == delays

    def test_insertion_order_does_not_matter(self):
        delays = _random_delays(6, 8, 3)
        backwards = dict(reversed(list(delays.items())))
        assert _by_messages(6, 8, backwards) == _by_messages(6, 8, delays)
        assert (
            _by_messages(6, 8, backwards).digest()
            == _by_rows(6, 8, delays).digest()
        )

    def test_a_repeated_delay_replaces_the_earlier_round(self):
        builder = ScheduleBuilder(4, 1, 8)
        builder.delay(0, 1, 2, 4).delay(2, 1, 2, 4).delay(0, 1, 2, 6)
        schedule = builder.build()
        assert dict(schedule.delays) == {(0, 1, 2): 6, (2, 1, 2): 4}
        assert schedule.delay_rows == {(2, 1): {4: 1 << 2, 6: 1 << 0}}
        again = ScheduleBuilder(4, 1, 8).delay(2, 1, 2, 4).delay(0, 1, 2, 6)
        assert schedule == again.build()
        assert schedule.digest() == again.build().digest()

    def test_the_last_bit_leaving_a_delivery_round_drops_it(self):
        builder = ScheduleBuilder(4, 1, 8)
        builder.delay(0, 1, 2, 4).delay(0, 1, 2, 5)
        assert builder.build().delay_rows == {(2, 1): {5: 1 << 0}}

    def test_a_row_over_an_existing_row_replaces_per_message(self):
        builder = ScheduleBuilder(5, 2, 8)
        builder.delay(0, 1, 2, 4).delay(3, 1, 2, 5)
        builder.delay_row(2, 1, {5: 1 << 0, 6: 1 << 4})
        assert dict(builder.build().delays) == {
            (0, 1, 2): 5, (3, 1, 2): 5, (4, 1, 2): 6,
        }

    def test_a_sender_in_two_masks_keeps_the_later_round(self):
        # As two delay() calls for one message would.
        builder = ScheduleBuilder(4, 1, 8)
        builder.delay_row(2, 1, {4: 0b101, 5: 0b100})
        assert builder.build().delay_rows == {(2, 1): {4: 0b1, 5: 0b100}}

    def test_an_empty_row_stores_nothing(self):
        builder = ScheduleBuilder(4, 1, 8)
        builder.delay_row(2, 1, {}).delay_row(3, 1, {5: 0})
        assert builder.build() == Schedule.failure_free(4, 1, 8)

    @pytest.mark.parametrize(
        "k,receiver,row,match",
        [
            (2, 1, {4: 1 << 1}, "self-delivery"),
            (2, 1, {4: 1 << 4}, "out of range"),
            (2, 4, {4: 1 << 0}, "out of range"),
            (2, 1, {2: 1 << 0}, "must exceed"),
            (2, 1, {9: 1 << 0}, "exceeds horizon"),
            (2, 1, {4: -1}, "negative sender mask"),
        ],
    )
    def test_rejects_what_delay_rejects(self, k, receiver, row, match):
        builder = ScheduleBuilder(4, 1, 8)
        with pytest.raises(ScheduleError, match=match):
            builder.delay_row(k, receiver, row)

    def test_the_view_is_read_only(self):
        schedule = ScheduleBuilder(3, 1, 5).delay(0, 1, 1, 3).build()
        with pytest.raises(TypeError):
            schedule.delays[0, 2, 1] = 3


class TestConflicts:
    def test_delay_then_lose_raises(self):
        builder = ScheduleBuilder(4, 1, 6)
        builder.delay_row(1, 2, {3: 0b11})
        with pytest.raises(ScheduleError, match="already delayed"):
            builder.lose(1, 2, 1)
        builder.lose(3, 2, 1)  # not in the row

    def test_lose_then_delay_raises(self):
        builder = ScheduleBuilder(4, 1, 6)
        builder.lose(1, 2, 1)
        with pytest.raises(ScheduleError, match="already lost"):
            builder.delay_row(1, 2, {3: 0b11})
        with pytest.raises(ScheduleError, match="already lost"):
            builder.delay(1, 2, 1, 3)

    @pytest.mark.parametrize("crash_round", [1, 2])
    def test_build_rejects_a_row_from_a_crashed_sender(self, crash_round):
        # The sender crashes in or before the row's sent round.
        builder = ScheduleBuilder(4, 1, 6)
        builder.crash(3, crash_round)
        builder.delay_row(2, 1, {4: 1 << 0 | 1 << 3})
        with pytest.raises(
            ScheduleError, match=f"process 3 crashes in round {crash_round}"
        ):
            builder.build()

    def test_build_accepts_a_row_sent_before_the_crash(self):
        builder = ScheduleBuilder(4, 1, 6)
        builder.crash(3, 3)
        builder.delay_row(2, 1, {4: 1 << 0 | 1 << 3})
        assert dict(builder.build().delays) == {(0, 1, 2): 4, (3, 1, 2): 4}


class TestSyncFromReadsRows:
    @pytest.mark.parametrize(
        "generator", [random_es_schedule, random_scs_schedule]
    )
    @pytest.mark.parametrize("n,t", [(4, 1), (9, 4), (25, 8)])
    def test_equals_the_scan_over_every_message(self, generator, n, t):
        for seed in range(4):
            schedule = generator(n, t, seed, horizon=max(12, t + 6))
            assert schedule.sync_from() == sync_from_by_scan(schedule)

    def test_equals_the_scan_on_direct_rows(self):
        # Self-delays, delays from a crashed sender and a delivery in
        # the send round leave a round synchronous; one real delay does
        # not.
        schedule = ScheduleBuilder(4, 1, 8).crash(3, 2).build()
        rows = delay_rows_of({
            (1, 1, 2): 5, (3, 0, 4): 6, (0, 2, 5): 5, (2, 0, 3): 4,
        })
        direct = Schedule(
            n=4, t=1, horizon=8, crashes=schedule.crashes, delay_rows=rows
        )
        assert direct.sync_from() == sync_from_by_scan(direct) == 4
