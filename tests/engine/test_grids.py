"""Tests for declarative grids and the seeded schedule-family layer."""

import pickle
from dataclasses import replace

import pytest

from repro.engine import grids
from repro.engine.grids import (
    DETERMINISTIC_KINDS,
    SEEDED_KINDS,
    FamilySpec,
    GridError,
    GridSpec,
    ScheduleRecipe,
    build_schedule,
    case_seed,
    default_sweep_grid,
    expand_family,
    expand_grid,
    family,
)
from repro.model.schedule import Schedule


class TestCaseSeed:
    def test_deterministic(self):
        assert case_seed(0, "es", 3) == case_seed(0, "es", 3)

    def test_sensitive_to_every_component(self):
        base = case_seed(0, "es", 3)
        assert case_seed(1, "es", 3) != base
        assert case_seed(0, "scs", 3) != base
        assert case_seed(0, "es", 4) != base

    def test_no_index_collisions_in_practice(self):
        seeds = {case_seed(0, "es", i) for i in range(1000)}
        assert len(seeds) == 1000


class TestFamilySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(GridError, match="unknown family kind"):
            family("x", "not_a_kind")

    def test_zero_count_rejected(self):
        with pytest.raises(GridError, match="count"):
            family("x", "random_es", count=0)

    def test_params_are_sorted_pairs(self):
        fam = family("k", "killer", rounds_per_cycle=2, f=1)
        assert fam.params == (("f", 1), ("rounds_per_cycle", 2))


class TestBuildSchedule:
    @pytest.mark.parametrize("kind", SEEDED_KINDS)
    def test_seeded_kinds(self, kind):
        fam = family(kind, kind, horizon=10)
        schedule = build_schedule(fam, 5, 2, seed=42)
        assert isinstance(schedule, Schedule)
        assert (schedule.n, schedule.t, schedule.horizon) == (5, 2, 10)

    def test_seed_changes_seeded_schedules(self):
        fam = family("es", "random_es", horizon=12)
        a = build_schedule(fam, 5, 2, seed=1)
        b = build_schedule(fam, 5, 2, seed=2)
        assert a != b  # astronomically unlikely to collide

    @pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
    def test_deterministic_kinds(self, kind):
        params = {}
        if kind == "killer":
            params["rounds_per_cycle"] = 2
        if kind == "async_prefix":
            params["k"] = 2
        if kind == "rotating":
            params["async_rounds"] = 2
        fam = family(kind, kind, horizon=12, **params)
        assert build_schedule(fam, 5, 2, seed=0) == build_schedule(
            fam, 5, 2, seed=99
        )


class TestExpandFamily:
    def test_seeded_labels_embed_derived_seed(self):
        fam = family("es", "random_es", count=3)
        instances = expand_family(fam, 5, 2, master_seed=7)
        assert len(instances) == 3
        for i, (label, _recipe) in enumerate(instances):
            assert label == f"es[{i}]@{case_seed(7, 'es', i)}"

    def test_singleton_deterministic_label_is_bare_name(self):
        fam = family("cascade", "cascade")
        (label, _recipe), = expand_family(fam, 5, 2, master_seed=0)
        assert label == "cascade"

    def test_reexpansion_identical(self):
        fam = family("scs", "random_scs", count=5)

        def built():
            return [
                (label, recipe.build())
                for label, recipe in expand_family(fam, 5, 2, 3)
            ]

        assert built() == built()

    def test_expansion_builds_nothing(self, built_schedules):
        fam = family("es", "random_es", count=3)
        recipes = [recipe for _label, recipe in expand_family(fam, 5, 2, 7)]
        assert built_schedules == []
        assert [recipe.seed for recipe in recipes] == [
            case_seed(7, "es", i) for i in range(3)
        ]


class TestGridSpec:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(GridError, match="unknown algorithm"):
            GridSpec(n=5, t=2, algorithms=("nope",),
                     families=(family("es", "random_es"),))

    def test_duplicate_family_names_rejected(self):
        with pytest.raises(GridError, match="duplicate family names"):
            GridSpec(
                n=5, t=2, algorithms=("att2",),
                families=(family("es", "random_es"),
                          family("es", "random_scs")),
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(GridError, match="at least one algorithm"):
            GridSpec(n=5, t=2, algorithms=(),
                     families=(family("es", "random_es"),))
        with pytest.raises(GridError, match="at least one schedule family"):
            GridSpec(n=5, t=2, algorithms=("att2",), families=())

    def test_bad_proposal_mode_rejected(self):
        with pytest.raises(GridError, match="proposal_mode"):
            GridSpec(n=5, t=2, algorithms=("att2",),
                     families=(family("es", "random_es"),),
                     proposal_mode="zeros")

    def test_serial_family_needs_a_round_per_crash(self):
        with pytest.raises(GridError, match="family 'ser'.*horizon has only 8"):
            GridSpec(n=25, t=12, algorithms=("att2",),
                     families=(family("ser", "random_serial", horizon=8),))
        with pytest.raises(GridError, match="up to 9 processes"):
            GridSpec(n=25, t=12, algorithms=("att2",),
                     families=(family("ser", "random_serial", horizon=8,
                                      max_crashes=9),))
        # A cap of at most the horizon is accepted, at any t.
        for cap, horizon in ((8, 8), (None, 12)):
            GridSpec(n=25, t=12, algorithms=("att2",),
                     families=(family("ser", "random_serial",
                                      horizon=horizon, max_crashes=cap),))

    @pytest.mark.parametrize("kind", SEEDED_KINDS)
    @pytest.mark.parametrize("cap", [-1, 1.5, "2", True])
    def test_max_crashes_must_be_a_non_negative_int(self, kind, cap):
        # The generators draw randint(0, cap): -1 is an empty range.
        with pytest.raises(GridError, match="family 'f': max_crashes"):
            GridSpec(n=9, t=4, algorithms=("att2",),
                     families=(family("f", kind, max_crashes=cap),))

    def test_zero_or_unset_max_crashes_accepted(self):
        for cap in (0, None):
            GridSpec(n=9, t=4, algorithms=("att2",),
                     families=(family("f", "random_es", max_crashes=cap),))

    @pytest.mark.parametrize("kind, params", [
        ("killer", {"bogus": 1}),
        ("random_es", {"bogus": 1}),
        ("failure_free", {"rounds_per_cycle": 2}),
        ("hiding_chain", {"k": 2}),
        ("cascade", {"max_crashes": 1}),
    ])
    def test_params_the_generator_does_not_take_rejected(self, kind, params):
        with pytest.raises(GridError, match=f"family 'f': {kind} takes no"):
            GridSpec(n=9, t=4, algorithms=("att2",),
                     families=(family("f", kind, **params),))

    def test_case_count(self):
        spec = GridSpec(
            n=5, t=2, algorithms=("att2", "floodset"),
            families=(family("es", "random_es", count=4),
                      family("ff", "failure_free")),
        )
        assert spec.case_count == 2 * (4 + 1)


class TestExpandGrid:
    def _spec(self, **overrides):
        defaults = dict(
            n=5, t=2,
            algorithms=("att2", "hurfin_raynal"),
            families=(family("es", "random_es", count=3),
                      family("ff", "failure_free")),
            seed=11,
        )
        defaults.update(overrides)
        return GridSpec(**defaults)

    def test_count_order_and_indices(self):
        cases = expand_grid(self._spec())
        assert len(cases) == 8
        assert [case.index for case in cases] == list(range(8))
        # Algorithm-major order, families in declaration order.
        assert [case.algorithm for case in cases] == (
            ["att2"] * 4 + ["hurfin_raynal"] * 4
        )
        assert [case.workload for case in cases[:4]] == [
            case.workload for case in cases[4:]
        ]

    def test_same_schedule_for_every_algorithm(self):
        cases = expand_grid(self._spec())
        assert cases[0].schedule == cases[4].schedule

    def test_reexpansion_identical(self):
        assert expand_grid(self._spec()) == expand_grid(self._spec())

    def test_seed_changes_seeded_schedules_only(self):
        a = expand_grid(self._spec())
        b = expand_grid(self._spec(seed=12))
        assert a[0].schedule != b[0].schedule      # random_es instance
        assert a[3].schedule == b[3].schedule      # failure_free

    def test_range_proposals(self):
        cases = expand_grid(self._spec())
        assert all(case.proposals == (0, 1, 2, 3, 4) for case in cases)

    def test_random_proposals_are_seeded_and_valid(self):
        cases = expand_grid(self._spec(proposal_mode="random"))
        again = expand_grid(self._spec(proposal_mode="random"))
        assert [c.proposals for c in cases] == [c.proposals for c in again]
        assert any(c.proposals != (0, 1, 2, 3, 4) for c in cases)
        assert all(len(c.proposals) == 5 for c in cases)


class TestDefaultSweepGrid:
    def test_meets_the_acceptance_floor(self):
        grid = default_sweep_grid()
        assert len(grid.algorithms) >= 3
        assert grid.case_count >= 100

    def test_scales_by_config(self):
        small = default_sweep_grid(cases_per_family=2)
        big = default_sweep_grid(cases_per_family=40)
        assert big.case_count > 2 * small.case_count


class TestProfileGrids:
    def test_unknown_profile_rejected(self):
        from repro.engine.grids import profile_grids

        with pytest.raises(GridError, match="unknown sweep profile"):
            profile_grids("nope")

    def test_large_profile_shape(self):
        from repro.engine.grids import profile_grids

        grids = profile_grids("large")
        assert [label for label, _grid in grids] == ["n25", "n50"]
        by_label = dict(grids)
        assert (by_label["n25"].n, by_label["n25"].t) == (25, 8)
        assert (by_label["n50"].n, by_label["n50"].t) == (50, 16)
        # long horizons: the stock formula at large t
        assert all(
            fam.horizon == max(12, 3 * grid.t + 6)
            for _label, grid in grids
            for fam in grid.families
        )
        # every profile grid expands cleanly
        for _label, grid in grids:
            cases = expand_grid(grid)
            assert len(cases) == grid.case_count

    def test_profile_seed_threads_through(self):
        from repro.engine.grids import profile_grids

        a = profile_grids("large", seed=1)
        b = profile_grids("large", seed=2)
        assert a[0][1].seed == 1
        assert b[0][1].seed == 2
        assert a[0][1] != b[0][1]


class TestXLargeProfile:
    def test_xlarge_profile_shape(self):
        from repro.engine.grids import profile_grids

        grids = profile_grids("xlarge")
        assert [label for label, _grid in grids] == ["n100"]
        _label, grid = grids[0]
        assert (grid.n, grid.t) == (100, 32)
        # one instance per family keeps the n=100 milestone a smoke-sized
        # run; the long horizon comes from the stock formula.
        assert all(fam.horizon == 102 for fam in grid.families)
        assert grid.case_count == len(grid.algorithms) * sum(
            fam.count for fam in grid.families
        )

    def test_xlarge_expands_without_building_schedules_eagerly(self):
        # Expansion builds nothing; each 100-process schedule is built
        # when a case first reads it.
        from repro.engine.grids import profile_grids

        _label, grid = profile_grids("xlarge")[0]
        cases = expand_grid(grid)
        assert len(cases) == grid.case_count
        assert all(case.schedule.n == 100 for case in cases)


class TestScheduleRecipe:
    def _spec(self):
        return GridSpec(
            n=5, t=2, algorithms=("att2", "hurfin_raynal"),
            families=(family("es", "random_es", count=3),
                      family("ff", "failure_free")),
            seed=11,
        )

    def test_expansion_builds_no_schedule(self, built_schedules):
        cases = expand_grid(self._spec())
        assert built_schedules == []
        assert all(isinstance(case.recipe, ScheduleRecipe) for case in cases)

    def test_first_read_builds_one_schedule_per_instance(
        self, built_schedules
    ):
        cases = expand_grid(self._spec())
        assert cases[4].schedule is cases[0].schedule  # same instance
        assert cases[1].schedule is cases[5].schedule
        assert len(built_schedules) == 2
        for case in cases:
            case.schedule
        assert len(built_schedules) == 4 == len(set(built_schedules))

    def test_built_schedule_equals_the_family_expansion(self):
        cases = expand_grid(self._spec())
        expected = [
            recipe.build()
            for fam in self._spec().families
            for _label, recipe in expand_family(fam, 5, 2, 11)
        ]
        assert [case.schedule for case in cases[:4]] == expected

    def test_unbuilt_recipe_pickles_unbuilt_and_builds_an_equal_schedule(
        self, built_schedules
    ):
        case = expand_grid(self._spec())[0]
        clone = pickle.loads(pickle.dumps(case))
        assert isinstance(clone.recipe, ScheduleRecipe)
        assert clone.recipe.content() == case.recipe.content()
        assert clone.recipe.key() == case.recipe.key()
        assert built_schedules == []
        assert isinstance(clone.schedule, Schedule)
        assert len(built_schedules) == 1
        assert clone.schedule == case.schedule
        assert len(built_schedules) == 2  # one build on each side

    def test_built_recipe_pickles_without_its_schedule(self, built_schedules):
        case = expand_grid(self._spec())[0]
        schedule = case.schedule
        clone = pickle.loads(pickle.dumps(case))
        assert isinstance(clone.recipe, ScheduleRecipe)
        assert len(pickle.dumps(case)) == len(
            pickle.dumps(expand_grid(self._spec())[0])
        )
        assert len(built_schedules) == 1
        assert clone.schedule == schedule
        assert len(built_schedules) == 2  # the clone built its own
        assert clone == case

    def test_eq_hash_and_repr_build_nothing(self, built_schedules):
        cases = expand_grid(self._spec())
        again = expand_grid(self._spec())
        assert cases == again and cases[0] != cases[1]
        assert cases[0].recipe == cases[4].recipe != cases[1].recipe
        assert set(cases) == set(again) and len(set(cases)) == len(cases)
        text = repr(cases[1])
        assert built_schedules == []
        assert f"ScheduleRecipe('es', n=5, t=2, seed={cases[1].recipe.seed})" \
            in text
        assert len(text) < 200

    def test_relabelled_case_keeps_the_recipe_unbuilt(self, built_schedules):
        case = expand_grid(self._spec())[0]
        moved = replace(case, index=9, workload="moved")
        assert moved.recipe is case.recipe
        assert built_schedules == []

    def test_key_identifies_the_instance(self):
        cases = expand_grid(self._spec())
        again = expand_grid(self._spec())
        keys = [case.recipe.key() for case in cases[:4]]
        assert len(set(keys)) == 4
        assert keys == [case.recipe.key() for case in again[:4]]
        assert all(len(key) == 64 for key in keys)
        assert cases[0].recipe.key() == cases[4].recipe.key()
        first = cases[0].recipe
        assert ScheduleRecipe(first.family, 5, 2, first.seed + 1).key() != (
            first.key()
        )

    def test_key_covers_the_generator_source(self, monkeypatch):
        recipe = expand_grid(self._spec())[0].recipe
        before = recipe.key()
        monkeypatch.setattr(grids, "generator_source_hash", lambda: "edited")
        fresh = ScheduleRecipe(recipe.family, recipe.n, recipe.t, recipe.seed)
        assert fresh.key() != before

    def test_unfingerprintable_generators_have_no_key(self, monkeypatch):
        monkeypatch.setattr(grids, "generator_source_hash", lambda: None)
        assert expand_grid(self._spec())[0].recipe.key() is None
