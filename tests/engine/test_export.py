"""``BatchResult.save`` writes exactly ``to_json(indent=2)`` plus a newline.

``save`` encodes the records one at a time with the C encoder and
writes each into the indented layout as it goes; these tests pin its
bytes (and ``to_json(indent=2)``, which shares the writer) to the
stdlib's indented encoding of ``to_data()``, which is what every
archived export, spool rebuild, shard merge and pinned digest was
written with.
"""

import json
import types
import typing
from dataclasses import fields, replace

import pytest

from repro.analysis.sweep import SweepRecord
from repro.engine import BatchResult, run_batch
from repro.engine.grids import default_sweep_grid

JSON_SCALARS = {str, int, float, bool, type(None)}


def _record(index, **changes):
    base = SweepRecord(
        algorithm="att2",
        workload=f"es[{index}]",
        n=5,
        t=2,
        crashes=1,
        sync_from=2,
        global_round=4,
        first_round=3,
        deciders=4,
        agreement_ok=True,
        validity_ok=True,
        messages=80 + index,
        horizon=12,
        correct_undecided=0,
        case_index=index,
    )
    return replace(base, **changes)


def _expected(result):
    return json.dumps(result.to_data(), indent=2, sort_keys=True) + "\n"


def _saved(result, tmp_path):
    path = tmp_path / "export.json"
    result.save(str(path))
    return path.read_bytes()


@pytest.mark.parametrize(
    "records",
    [
        (),
        (_record(0),),
        (_record(0), _record(1, algorithm="adiamond_s")),
        (
            _record(0, workload="ñandú ☃ Zürich"),
            _record(1, workload='say "hi" \\ {x: [1, 2]}'),
            _record(2, workload="tab\tnew\nline,\n      {"),
        ),
        (
            _record(0, global_round=None, first_round=None),
            _record(1, global_round=None, first_round=2),
        ),
    ],
    ids=["empty", "one", "two", "awkward-labels", "none-rounds"],
)
def test_save_is_the_indented_encoding(records, tmp_path):
    result = BatchResult(records=records)
    assert _saved(result, tmp_path) == _expected(result).encode("utf-8")
    assert result.to_json(indent=2) + "\n" == _expected(result)


def test_save_builds_no_plain_data_copy_of_the_batch(tmp_path, monkeypatch):
    # The export streams records; a to_data() list of every record on
    # top of the batch is what it exists to avoid.
    result = BatchResult(records=(_record(0), _record(1)))
    expected = _expected(result)

    def no_batch_copy(self):
        raise AssertionError("save built the whole batch as plain data")

    monkeypatch.setattr(BatchResult, "to_data", no_batch_copy)
    assert _saved(result, tmp_path) == expected.encode("utf-8")


def test_save_of_a_real_batch(tmp_path):
    result = run_batch(default_sweep_grid(5, 2, seed=4, cases_per_family=2))
    saved = _saved(result, tmp_path)
    assert saved == _expected(result).encode("utf-8")
    assert BatchResult.load(str(tmp_path / "export.json")) == result


def test_every_record_field_is_a_json_scalar():
    # save lays records out as flat objects; a list or dict field would
    # need the nested indentation it does not reproduce.
    hints = typing.get_type_hints(SweepRecord)
    for field in fields(SweepRecord):
        hint = hints[field.name]
        if isinstance(hint, types.UnionType) or typing.get_origin(hint) is (
            typing.Union
        ):
            members = set(typing.get_args(hint))
        else:
            members = {hint}
        assert members <= JSON_SCALARS, (field.name, hint)
