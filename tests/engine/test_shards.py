"""Shard determinism: N shards, any backend, any merge order == whole grid.

The sharding contract: a :class:`ShardSpec` slices an expanded grid into
disjoint index classes, each shard runs wherever (and on whatever
backend) it likes, and :meth:`BatchResult.merge` recombines the exports
into a result byte-identical to executing the grid whole.
"""

import itertools
import json

import pytest

from repro.engine import (
    BatchResult,
    GridError,
    GridSpec,
    ProcessExecutor,
    SerialExecutor,
    ShardSpec,
    expand_grid,
    family,
    run_batch,
)

BACKEND_PARAMS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(ProcessExecutor(workers=2), id="processes"),
]


def _grid(seed=13):
    return GridSpec(
        n=5,
        t=2,
        algorithms=("att2", "floodset"),
        families=(
            family("es", "random_es", count=4, horizon=10),
            family("cascade", "cascade", horizon=10),
        ),
        seed=seed,
        proposal_mode="random",
    )


def _run_shard(grid, index, count, **kwargs):
    """One shard's result, selected the way ``repro sweep --shard`` does."""
    cases = ShardSpec(index, count).select(expand_grid(grid))
    return run_batch(cases, **kwargs)


# Fewer shards than the grid's 10 cases, as many, and more.
SHARD_COUNTS = (1, 2, 3, 4, 5, 7, 10, 16)


@pytest.fixture(scope="module")
def three_shards():
    """(whole, [shard 0/3, 1/3, 2/3]) of the default test grid, run once."""
    grid = _grid()
    whole = run_batch(grid, executor=SerialExecutor())
    shards = [
        _run_shard(grid, i, 3, executor=SerialExecutor()) for i in range(3)
    ]
    return whole, shards


class TestShardSpec:
    def test_parse_roundtrip(self):
        assert ShardSpec.parse("1/3") == ShardSpec(index=1, count=3)
        assert ShardSpec.parse("0/1") == ShardSpec(index=0, count=1)

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/", "/2", "1/2/3"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(GridError, match="malformed shard"):
            ShardSpec.parse(text)

    @pytest.mark.parametrize("text", ["2/2", "5/3", "-1/2"])
    def test_parse_rejects_out_of_range_index(self, text):
        with pytest.raises(GridError, match="shard index"):
            ShardSpec.parse(text)

    def test_zero_count_rejected(self):
        with pytest.raises(GridError, match="shard count"):
            ShardSpec(index=0, count=0)

    def test_shards_partition_the_expansion(self):
        cases = expand_grid(_grid())
        selected = [
            case.index
            for i in range(3)
            for case in ShardSpec(i, 3).select(cases)
        ]
        assert sorted(selected) == [case.index for case in cases]
        assert len(selected) == len(set(selected))

    def test_selection_is_round_robin(self):
        cases = expand_grid(_grid())
        shard = ShardSpec(1, 3)
        assert [case.index for case in shard.select(cases)] == [
            case.index for case in cases if case.index % 3 == 1
        ]

    def test_single_shard_is_the_whole_grid(self):
        cases = expand_grid(_grid())
        assert ShardSpec(0, 1).select(cases) == cases

    def test_more_shards_than_cases_yields_empty_shards(self):
        cases = expand_grid(_grid())[:2]
        assert ShardSpec(9, 10).select(cases) == []

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_every_shard_count_partitions_the_expansion(self, count):
        # Hosts that each slice the same grid file must, between them,
        # run every case exactly once, whatever N the operator picked.
        cases = expand_grid(_grid())
        selected = [
            case.index
            for i in range(count)
            for case in ShardSpec(i, count).select(cases)
        ]
        assert sorted(selected) == [case.index for case in cases]

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_round_robin_balances_shard_sizes(self, count):
        cases = expand_grid(_grid())
        sizes = [len(ShardSpec(i, count).select(cases)) for i in range(count)]
        assert sum(sizes) == len(cases)
        assert max(sizes) - min(sizes) <= 1

    def test_describe_names_the_cli_form(self):
        spec = ShardSpec(2, 5)
        assert spec.describe() == "shard 2/5"
        assert ShardSpec.parse(spec.describe().split()[1]) == spec


class TestShardDeterminism:
    @pytest.mark.parametrize("executor", BACKEND_PARAMS)
    def test_merged_shards_byte_identical_to_whole(self, executor):
        """The acceptance criterion, per backend: N shards merged in
        shuffled order reproduce the whole-grid JSON exactly."""
        grid = _grid()
        whole = run_batch(grid, executor=SerialExecutor())
        shards = [
            _run_shard(grid, i, 3, executor=executor)
            for i in range(3)
        ]
        for order in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
            merged = BatchResult.merge(shards[i] for i in order)
            assert merged == whole
            assert merged.to_json() == whole.to_json()

    def test_merged_shards_roundtrip_through_json_files(self, tmp_path):
        """End-to-end shape of a distributed run: every shard exports to
        a file, the files are loaded elsewhere and merged."""
        grid = _grid(seed=21)
        whole = run_batch(grid, executor=SerialExecutor())
        paths = []
        for i in range(2):
            result = _run_shard(grid, i, 2, executor=SerialExecutor())
            path = tmp_path / f"shard{i}.json"
            result.save(str(path))
            paths.append(path)
        merged = BatchResult.merge(
            BatchResult.load(str(path)) for path in reversed(paths)
        )
        assert merged.to_json() == whole.to_json()

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(range(3))),
        ids=lambda order: "".join(map(str, order)),
    )
    def test_every_merge_order_is_byte_identical(self, three_shards, order):
        whole, shards = three_shards
        merged = BatchResult.merge(shards[i] for i in order)
        assert merged.to_json() == whole.to_json()

    @pytest.mark.parametrize("repeated", range(3))
    def test_any_shard_merged_twice_is_rejected(self, three_shards, repeated):
        # A shard exported twice (say, a host rerun whose first export
        # was not discarded) must not double-count its cases.
        _, shards = three_shards
        first = shards[repeated].records[0].case_index
        overlap = rf"shards overlap: case indices \[{first},"
        with pytest.raises(ValueError, match=overlap):
            BatchResult.merge([*shards, shards[repeated]])

    def test_library_merge_keeps_a_gapped_subset(self, three_shards):
        # Only `repro merge` refuses a gap; the library merge stays
        # lenient, because loading a torn spool relies on it.
        _, shards = three_shards
        merged = BatchResult.merge([shards[2], shards[0]])
        indices = [record.case_index for record in merged.records]
        assert indices == sorted(
            record.case_index
            for shard in (shards[0], shards[2])
            for record in shard.records
        )
        assert 1 not in indices

    def test_merge_of_nothing_is_empty(self):
        assert BatchResult.merge([]).case_count == 0

    def test_shard_records_keep_canonical_indices(self):
        grid = _grid()
        shard = _run_shard(grid, 1, 3, executor=SerialExecutor())
        assert [r.case_index for r in shard.records] == [
            case.index for case in ShardSpec(1, 3).select(expand_grid(grid))
        ]

    def test_shards_compose_with_cache(self, tmp_path):
        """A shard warmed through the cache still merges byte-identically."""
        from repro.engine import ResultCache

        grid = _grid()
        whole = run_batch(grid, executor=SerialExecutor())
        cache = ResultCache(tmp_path / "cache")
        cold = [_run_shard(grid, i, 2, cache=cache) for i in range(2)]
        warm = [_run_shard(grid, i, 2, cache=cache) for i in range(2)]
        assert cache.hits == grid.case_count
        for shards in (cold, warm):
            merged = BatchResult.merge(reversed(shards))
            assert merged.to_json() == whole.to_json()


class TestGridFileRoundtrip:
    def test_to_data_from_data_lossless(self):
        grid = _grid()
        assert GridSpec.from_data(grid.to_data()) == grid

    def test_json_roundtrip_lossless(self):
        grid = _grid()
        assert GridSpec.from_json(grid.to_json()) == grid
        assert json.loads(grid.to_json()) == grid.to_data()

    def test_save_load_roundtrip(self, tmp_path):
        grid = _grid(seed=33)
        path = tmp_path / "grid.json"
        grid.save(str(path))
        assert GridSpec.load(str(path)) == grid

    def test_loaded_grid_expands_identically(self, tmp_path):
        grid = _grid()
        path = tmp_path / "grid.json"
        grid.save(str(path))
        assert expand_grid(GridSpec.load(str(path))) == expand_grid(grid)

    def test_family_params_survive_roundtrip(self):
        grid = GridSpec(
            n=5, t=2, algorithms=("att2",),
            families=(
                family("k2", "killer", horizon=14, rounds_per_cycle=2),
                family("ap", "async_prefix", horizon=14, k=3),
            ),
        )
        rebuilt = GridSpec.from_data(grid.to_data())
        assert rebuilt == grid
        assert rebuilt.families[0].params == (("rounds_per_cycle", 2),)

    def test_unknown_grid_key_rejected(self):
        data = _grid().to_data()
        data["algorithm"] = ["att2"]  # typo'd key must fail loudly
        with pytest.raises(GridError, match="unknown grid keys"):
            GridSpec.from_data(data)

    def test_unknown_family_key_rejected(self):
        data = _grid().to_data()
        data["families"][0]["horzion"] = 10
        with pytest.raises(GridError, match="unknown family keys"):
            GridSpec.from_data(data)

    def test_missing_required_keys_rejected(self):
        # Every experiment-defining key is required — a file silently
        # defaulting seed or proposal_mode would run a different
        # experiment than its author believes.
        for key in ("families", "seed", "proposal_mode"):
            data = _grid().to_data()
            del data[key]
            with pytest.raises(GridError, match=f"missing '{key}'"):
                GridSpec.from_data(data)

    def test_foreign_version_rejected(self):
        data = _grid().to_data()
        data["version"] = 99
        with pytest.raises(GridError, match="version"):
            GridSpec.from_data(data)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{not json")
        with pytest.raises(GridError, match="not valid JSON"):
            GridSpec.load(str(path))

    def test_semantic_validation_still_applies(self):
        data = _grid().to_data()
        data["algorithms"] = ["nope"]
        with pytest.raises(GridError, match="unknown algorithm"):
            GridSpec.from_data(data)

    def test_wrongly_typed_values_rejected_as_grid_errors(self):
        # Type errors must surface as GridError (which the CLI turns
        # into a clean message), never as a raw TypeError traceback.
        for key, value in (("n", "5"), ("t", 2.0), ("seed", True)):
            data = _grid().to_data()
            data[key] = value
            with pytest.raises(GridError, match=f"'{key}' must be"):
                GridSpec.from_data(data)
        data = _grid().to_data()
        data["families"][0]["count"] = "4"
        with pytest.raises(GridError, match="'count' must be"):
            GridSpec.from_data(data)

    def test_string_algorithms_not_iterated_charwise(self):
        data = _grid().to_data()
        data["algorithms"] = "att2"
        with pytest.raises(GridError, match="'algorithms' must be"):
            GridSpec.from_data(data)
