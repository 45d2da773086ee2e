"""Tests for the algorithm registry."""

import pytest

from repro.algorithms.registry import available_algorithms, get_factory
from repro.model.schedule import Schedule
from repro.sim.kernel import run_algorithm


class TestRegistry:
    def test_all_expected_names_present(self):
        names = set(available_algorithms())
        assert names == {
            "floodset",
            "floodset_ws",
            "early_deciding",
            "chandra_toueg",
            "hurfin_raynal",
            "amr_leader",
            "att2",
            "att2_optimized",
            "adiamond_s",
            "afp2",
        }

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known:"):
            get_factory("paxos")

    def test_every_entry_has_model_and_summary(self):
        for info in available_algorithms().values():
            assert info.model in {"SCS", "ES"}
            assert info.summary

    def test_factories_build_runnable_automata(self):
        schedule = Schedule.failure_free(7, 2, 30)
        for name, info in available_algorithms().items():
            factory = info.make()
            trace = run_algorithm(factory, schedule, list(range(7)))
            assert trace.decisions, f"{name} failed to decide"

    def test_get_factory_matches_entries(self):
        factory = get_factory("floodset")
        automaton = factory(0, 3, 1, 42)
        assert automaton.proposal == 42

    def test_table_is_built_once_and_never_handed_out_mutable(self):
        from repro.algorithms import registry

        assert registry._entries() is registry._entries()
        handed_out = available_algorithms()
        handed_out.pop("att2")
        handed_out["bogus"] = handed_out["floodset"]
        assert "att2" in available_algorithms()
        assert "bogus" not in available_algorithms()
        with pytest.raises(TypeError):
            registry._entries()["bogus"] = handed_out["floodset"]
