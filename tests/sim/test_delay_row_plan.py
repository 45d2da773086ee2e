"""Delay rows from generator to kernel.

An ES schedule's asynchronous prefix holds tens of thousands of delayed
messages at n = 100.  They are stored, compiled and delivered as rows
(one sender mask per sent round), never one entry per message.  These
tests pin what the rows must not change — the generated schedules —
and count what they must change: the plan's entries, and the absence of
a per-message table on a schedule a sweep has run.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.algorithms.base import make_automata
from repro.algorithms.registry import get_factory
from repro.engine.executors import execute_case
from repro.engine.grids import expand_grid, profile_grids
from repro.sim import phase1_plane
from repro.sim.compiled import compile_schedule
from repro.sim.kernel import execute
from repro.sim.random_schedules import random_es_schedule
from repro.sim.replay import schedule_from_data, schedule_to_data

from kernel_oracle import delayed_pairs, execute_reference

#: ``(n, seed) -> (digest, sync_from, SHA-256 prefix of the JSON of
#: schedule_to_data)`` of ``random_es_schedule(n, t, seed)`` at the
#: stock grid's t and horizon, recorded when every delayed message was
#: its own ``Schedule.delays`` entry.
GOLDEN = {
    (4, 0): (
        "9de34a429b3e4521656acd7b905823416485a9151b441ddd5e537c938a7dcdb5",
        2, "de710dbcc87e1f08c3cd635a4a841fb4",
    ),
    (4, 1): (
        "2f62a60a6b851d8bee88056b0efaacd4f5a829f0316e49f03641959cecb186aa",
        6, "18c60594d3aa8073211d0db2982b28c4",
    ),
    (4, 2): (
        "4538df9749e18802dde96733ea8cc44e8f20f0f70d64c9341ae771be1b2f622c",
        6, "5115daab4dfc6485123c7d8af48051a0",
    ),
    (4, 3): (
        "63578250e6e44ec42c7dbba5b708dd9e3d0aea54678bacd08005f916e2f90bd7",
        6, "4f148d144bb13d5363dbaacbcc254d13",
    ),
    (4, 4): (
        "9be7cfa6cdbde36f968057b43a6505ed54e444e71bb9086623df01e8ac00686e",
        6, "3d1e22abfc392d4319195b829b1bc653",
    ),
    (9, 0): (
        "aba2d91f02c4d3a39158877bfe178a493356cfc310d4add21c06441a83702a58",
        9, "a9d91119163a3744702361290d8e3320",
    ),
    (9, 1): (
        "a2d0e4956d0c97ab17dd7f844f7f3243aecf0bfc30ef5b7585b59b5008f43b0c",
        9, "4cbd3a50c3e9bc54a8df39279909a8b5",
    ),
    (9, 2): (
        "4289350a1c651f386a47fe24da75af8e957fc6e7ea177e4ace6a99e1f920ba66",
        9, "0146b326eeb455c098e48ff7e98cb810",
    ),
    (9, 3): (
        "b3189589ba076296a17a313c6824f0d4d85b1873ccab073d766d285cef1d30a6",
        9, "163b9bb4d927ad872e9f720e418e1ed0",
    ),
    (9, 4): (
        "48f2cf10be9e9e0c0fb52739ebab38de0d6e5bb6f825125e740ddaf1f717d117",
        9, "4c865035e35e20c20c1cf13ada0e391c",
    ),
    (25, 0): (
        "9f3b16ad5db93038f3a3e68a9b474973afc4c9b058c8815e6f1eab6b82188ef4",
        15, "ba3361fd84943232efa12843dde0656f",
    ),
    (25, 1): (
        "29b57d0527ca40d486b64bbec538e8f9b80e3f69592a289998e0d0fe687893da",
        15, "96bb8a75bde31aee323d8419bce22b05",
    ),
    (25, 2): (
        "d59084ad307b1cc6611d2aba7421d853cb0840439fcf0f96bfec08003530d20f",
        15, "b7ebd09d3c83d01ef1aeaf12eb9b8c51",
    ),
    (25, 3): (
        "7817c6534f2558dd20fd748722ec731b65be74134205a74d5920bb2799aa1723",
        15, "6522f9e1ccf13b801279f422aae53ef0",
    ),
    (25, 4): (
        "c811df436f9e692fe937590ad81941280e23e45603a747b00ede1d0b0ddf6e8f",
        15, "3b1988ad0f8575d065d87dfe9ecfa36f",
    ),
    (100, 0): (
        "9226a13b7879573fe1db52a99c7146a45acbe64febe21b812ed6b91c5edc12a8",
        51, "4ffab48603c057fd8d57e8f54d9dd082",
    ),
    (100, 1): (
        "ff3327fa5e8963e27892fe54a6ea5abc032c07ddba30d18f3f71056959488529",
        51, "e6475523caee7fa64b19e2f109ac37bc",
    ),
    (100, 2): (
        "0109a36e4ac2bcacb9a68d9fa63aef17b33faf32f3d4dd6e7dd974e2ad734ee1",
        51, "f0f48e86d7d09aa304ecf0b101b44ff9",
    ),
    (100, 3): (
        "f7f3fa6ffca28786fe1ba8107168e84f64ce2fe44e851434d6cd9bf05813f34f",
        51, "423a0a8283e59e7695c42a21c46fc07f",
    ),
    (100, 4): (
        "34694c29798e5daa364633a0a5c000145ac3db4c5e2ee35866700e6974d13259",
        51, "d27bc7bbc1bf4682f30e64414caf967a",
    ),
}

#: The stock grid's t for each golden n.
SYSTEMS = {4: 1, 9: 4, 25: 8, 100: 32}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN))
def test_rows_change_no_generated_schedule(n, seed):
    t = SYSTEMS[n]
    schedule = random_es_schedule(n, t, seed, horizon=max(12, 3 * t + 6))
    data = json.dumps(schedule_to_data(schedule), sort_keys=True)
    got = (
        schedule.digest(),
        schedule.sync_from(),
        hashlib.sha256(data.encode()).hexdigest()[:32],
    )
    assert got == GOLDEN[n, seed]
    assert schedule_from_data(json.loads(data)) == schedule


@pytest.fixture(scope="module")
def xlarge_es_cases():
    """The ``--profile xlarge`` ES cases, sharing one recipe."""
    _label, grid = profile_grids("xlarge", seed=1)[0]
    return [
        case for case in expand_grid(grid) if case.workload.startswith("es[")
    ]


class TestXlargeESPlan:
    def test_one_entry_per_delivery_round_receiver_and_sent_round(
        self, xlarge_es_cases
    ):
        schedule = xlarge_es_cases[0].recipe.build()
        plan = compile_schedule(schedule)
        # The delivered delayed messages, one at a time, from the
        # per-message view of a second build of the same schedule.
        fresh = random_es_schedule(
            schedule.n, schedule.t, xlarge_es_cases[0].recipe.seed,
            horizon=schedule.horizon,
        )
        never = fresh.horizon + 1
        crash_at = {pid: spec.round for pid, spec in fresh.crashes.items()}
        messages = [
            (delivery, receiver, sent, sender)
            for (sender, receiver, sent), delivery in fresh.delays.items()
            if crash_at.get(receiver, never) > delivery
        ] + [
            (delivery, receiver, spec.round, pid)
            for pid, spec in fresh.crashes.items()
            for receiver, delivery in spec.delayed
            if crash_at.get(receiver, never) > delivery <= fresh.horizon
        ]
        entries = [
            (k, receiver, sent)
            for k, rows in enumerate(plan.delayed_inboxes)
            for receiver, row in enumerate(rows)
            for sent, _senders in row
        ]
        assert len(entries) == len({m[:3] for m in messages})
        assert sorted(
            (k, receiver, sent, sender)
            for k, rows in enumerate(plan.delayed_inboxes)
            for receiver, row in enumerate(rows)
            for sent, sender in delayed_pairs(row)
        ) == sorted(messages)
        assert len(messages) > 50_000
        assert len(entries) * 4 < len(messages)

    def test_claimed_round_counts_match_the_reference(
        self, xlarge_es_cases, monkeypatch
    ):
        # The first rounds of the run, where the plane claims every
        # round and counts delayed messages by popcount.  The reference
        # kernel is too slow for the whole n = 100 run, and a shorter
        # horizon leaves these rounds as they are.
        case = next(c for c in xlarge_es_cases if c.algorithm == "att2")
        schedule = replace(case.recipe.build(), horizon=6)
        claims = []
        claim = phase1_plane.Phase1Plane.claim

        def counted(plane, k, *args):
            claims.append(k)
            return claim(plane, k, *args)

        monkeypatch.setattr(phase1_plane.Phase1Plane, "claim", counted)
        factory = get_factory("att2")
        lean = execute(
            make_automata(factory, schedule.n, schedule.t, case.proposals),
            schedule, trace="lean",
        )
        assert claims == list(range(1, 7))
        assert any(
            row for rows in compile_schedule(schedule).delayed_inboxes
            for row in rows
        )
        reference = execute_reference(
            make_automata(factory, schedule.n, schedule.t, case.proposals),
            schedule,
        )
        assert lean.message_count() == reference.message_count()
        assert lean == replace(reference, rounds=None)

    def test_running_the_group_builds_no_per_message_table(
        self, xlarge_es_cases
    ):
        algorithms = {case.algorithm for case in xlarge_es_cases}
        assert algorithms == {
            "att2", "att2_optimized", "adiamond_s", "hurfin_raynal",
            "chandra_toueg",
        }
        for case in xlarge_es_cases:
            execute_case(case)
        schedule = xlarge_es_cases[0].recipe.build()
        assert "_compiled_cache" in schedule.__dict__
        assert "_delays_cache" not in schedule.__dict__
