"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import (
    AFPlus2,
    AMRLeaderES,
    ATt2,
    ATt2Optimized,
    ADiamondS,
    ChandraTouegES,
    EarlyDecidingSCS,
    FloodSet,
    FloodSetWS,
    HurfinRaynalES,
)
from repro.analysis.metrics import check_consensus
from repro.sim.kernel import run_algorithm


def es_algorithm_params():
    """(name, factory) pairs for algorithms that solve consensus in ES.

    Factories are rebuilt per call — A_{t+2} variants hold no shared state,
    but fresh factories keep parametrized tests independent.
    """
    return [
        ("att2", ATt2.factory()),
        ("att2_optimized", ATt2Optimized.factory()),
        ("adiamond_s", ADiamondS.factory()),
        ("chandra_toueg", ChandraTouegES),
        ("hurfin_raynal", HurfinRaynalES),
    ]


def scs_algorithm_params():
    """(name, factory) pairs for algorithms sound in SCS only."""
    return [
        ("floodset", FloodSet),
        ("floodset_ws", FloodSetWS),
        ("early_deciding", EarlyDecidingSCS),
    ]


def third_resilient_params():
    """(name, factory) pairs for the t < n/3 algorithms."""
    return [
        ("afp2", AFPlus2),
        ("amr_leader", AMRLeaderES),
    ]


def run_and_check(factory, schedule, proposals, *, expect_termination=True):
    """Run a consensus algorithm and assert the consensus properties."""
    trace = run_algorithm(factory, schedule, proposals)
    problems = check_consensus(trace, expect_termination=expect_termination)
    assert not problems, f"{problems}\n{trace.describe()}"
    return trace


@pytest.fixture
def att2_factory():
    return ATt2.factory()


class ListSink:
    """A :class:`~repro.engine.sink.RecordSink` that keeps every record."""

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)

    def close(self):
        pass


@pytest.fixture
def list_sink():
    return ListSink()


@pytest.fixture
def built_schedules(monkeypatch):
    """``(n, family name, seed)`` of every grid schedule built in the test.

    Counts calls of ``grids.build_schedule``, the one place a grid
    instance's schedule is built.
    """
    from repro.engine import grids

    built = []
    original = grids.build_schedule

    def counting(spec, n, t, seed):
        built.append((n, spec.name, seed))
        return original(spec, n, t, seed)

    monkeypatch.setattr(grids, "build_schedule", counting)
    return built
