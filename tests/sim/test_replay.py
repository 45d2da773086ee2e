"""Tests for schedule serialization and trace replay."""

import json

import pytest

from repro import ATt2, Schedule
from repro.errors import ScheduleError, SimulationError
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm
from repro.sim.random_schedules import random_es_schedule
from repro.sim.replay import (
    replay,
    schedule_from_data,
    schedule_to_data,
)


def rich_schedule():
    builder = ScheduleBuilder(5, 2, 14)
    builder.crash(0, 2, delivered_to=(1,), delayed={2: 4})
    builder.crash(4, 5, delivered_to=(1, 2, 3))
    builder.delay(1, 2, 1, 3)
    builder.lose(0, 3, 1)
    return builder.build()


class TestSerialization:
    def test_roundtrip_identity(self):
        schedule = rich_schedule()
        assert schedule_from_data(schedule_to_data(schedule)) == schedule

    def test_json_safe(self):
        data = schedule_to_data(rich_schedule())
        rebuilt = schedule_from_data(json.loads(json.dumps(data)))
        assert rebuilt == rich_schedule()

    @pytest.mark.parametrize("seed", range(15))
    def test_random_schedules_roundtrip(self, seed):
        schedule = random_es_schedule(6, 2, seed, horizon=12)
        assert schedule_from_data(schedule_to_data(schedule)) == schedule

    def test_version_checked(self):
        data = schedule_to_data(rich_schedule())
        data["version"] = 99
        with pytest.raises(SimulationError, match="version"):
            schedule_from_data(data)

    def test_failure_free_minimal(self):
        schedule = Schedule.failure_free(3, 1, 5)
        data = schedule_to_data(schedule)
        assert data["crashes"] == []
        assert data["delays"] == []
        assert schedule_from_data(data) == schedule


class TestMalformedData:
    """Stored data the builder would reject is rejected on load too."""

    @staticmethod
    def _data(**changes):
        data = schedule_to_data(Schedule.failure_free(4, 1, 6))
        data.update(changes)
        return data

    @pytest.mark.parametrize(
        "delay, error",
        [
            ([0, 7, 1, 2], "out of range"),
            ([0, 1, 3, 2], "must exceed sending round"),
            ([0, 1, 1, 99], "exceeds horizon"),
            ([1, 1, 1, 2], "self-delivery"),
        ],
        ids=["receiver-7", "delivered-before-sent", "round-99", "self"],
    )
    def test_rejects_a_delay_the_builder_rejects(self, delay, error):
        with pytest.raises(ScheduleError, match=error):
            schedule_from_data(self._data(delays=[delay]))

    def test_rejects_a_crash_twice(self):
        crash = {"pid": 0, "round": 1, "delivered_to": [], "delayed": []}
        with pytest.raises(ScheduleError, match="already crashes"):
            schedule_from_data(self._data(crashes=[crash, crash]))

    def test_rejects_a_duplicate_crash_round_receiver(self):
        crash = {
            "pid": 0, "round": 1, "delivered_to": [],
            "delayed": [[2, 3], [2, 4]],
        }
        with pytest.raises(ScheduleError, match="duplicate receiver"):
            schedule_from_data(self._data(crashes=[crash]))

    def test_rejects_a_crash_round_self_delay(self):
        crash = {"pid": 0, "round": 1, "delivered_to": [], "delayed": [[0, 3]]}
        with pytest.raises(ScheduleError, match="self-delivery"):
            schedule_from_data(self._data(crashes=[crash]))

    def test_rejects_a_loss_after_the_senders_crash(self):
        crash = {"pid": 0, "round": 1, "delivered_to": [], "delayed": []}
        with pytest.raises(ScheduleError, match="crashes in round 1"):
            schedule_from_data(self._data(crashes=[crash], losses=[[0, 1, 2]]))


class TestReplay:
    def test_replay_matches(self):
        schedule = rich_schedule()
        trace = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        fresh = replay(trace, ATt2.factory())
        assert dict(fresh.decisions) == dict(trace.decisions)

    def test_replay_detects_wrong_algorithm(self):
        from repro import HurfinRaynalES

        schedule = rich_schedule()
        trace = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        with pytest.raises(SimulationError, match="diverged"):
            replay(trace, HurfinRaynalES)


class TestLeanTraceRejected:
    def test_replay_refuses_lean_traces(self):
        trace = run_algorithm(
            ATt2, Schedule.failure_free(5, 2, 8), [3, 1, 4, 1, 5],
            trace="lean",
        )
        with pytest.raises(SimulationError, match="requires a full trace"):
            replay(trace, ATt2)
