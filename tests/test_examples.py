"""Every example under ``examples/`` runs and prints without raising."""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.experiments import all_experiments, render

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(p.stem for p in EXAMPLES.glob("*.py")))
def test_example_prints(name, capsys):
    assert run_example(name, capsys).strip()


def test_report_prints_exactly_the_experiment_tables(capsys):
    out = run_example("experiments_report", capsys)
    rest = out
    for table in all_experiments():
        before, found, rest = rest.partition("\n" + render(table) + "\n")
        assert found, table[0]
        assert "|" not in before  # no table printed outside the six
    assert "|" not in rest
