"""CLI behavior: exit codes, --json export, rule selection, rule listing."""

from __future__ import annotations

import argparse
import io
import json

from repro.cli import add_lint_arguments
from repro.cli import main as repro_main
from repro.devtools import all_rules
from repro.devtools.cli import run_lint

CLEAN = "x = 1\n"
DIRTY = "import random\nx = random.random()\n"


def parse(argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(argv)


def lint(argv):
    stream = io.StringIO()
    code = run_lint(parse(argv), stream=stream)
    return code, stream.getvalue()


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        code, out = lint([str(tmp_path)])
        assert code == 0
        assert "clean" in out

    def test_findings_exit_one(self, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY)
        code, out = lint([str(tmp_path)])
        assert code == 1
        assert "DET002" in out

    def test_unknown_path_exits_two(self):
        code, _ = lint(["definitely/not/here"])
        assert code == 2

    def test_unknown_select_code_exits_two(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        code, _ = lint([str(tmp_path), "--select", "NOPE99"])
        assert code == 2


class TestJsonExport:
    def test_report_written(self, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY)
        out_file = tmp_path / "report.json"
        code, _ = lint([str(tmp_path), "--json", str(out_file)])
        assert code == 1
        data = json.loads(out_file.read_text())
        assert data["version"] == 2
        assert data["counts"] == {"DET002": 1}
        assert len(data["findings"]) == 1
        finding = data["findings"][0]
        assert finding["code"] == "DET002"
        assert finding["line"] == 2

    def test_written_even_when_clean(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        out_file = tmp_path / "report.json"
        code, _ = lint([str(tmp_path), "--json", str(out_file)])
        assert code == 0
        assert json.loads(out_file.read_text())["findings"] == []

    def test_reports_name_no_allowance(self, tmp_path):
        # Inline noqa is the only allowance, so neither report counts
        # findings let through by a file.
        (tmp_path / "bad.py").write_text(DIRTY)
        out_file = tmp_path / "report.json"
        code, out = lint([str(tmp_path), "--json", str(out_file)])
        assert code == 1
        assert sorted(json.loads(out_file.read_text())) == [
            "counts", "files_checked", "findings", "version",
        ]
        assert "baselined" not in out


class TestSelect:
    def test_select_restricts_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import random\n"
            "x = random.random()\n"
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    except:\n"
            "        pass\n"
        )
        code, out = lint([str(tmp_path), "--select", "ORC001"])
        assert code == 1
        assert "ORC001" in out and "DET002" not in out


class TestListRules:
    def test_catalogue_lists_every_code(self):
        code, out = lint(["--list-rules"])
        assert code == 0
        for rule in all_rules():
            assert rule.code in out


class TestReproEntryPoint:
    def test_lint_subcommand_wired(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        assert repro_main(["lint", str(tmp_path)]) == 1
        assert "DET002" in capsys.readouterr().out
        (tmp_path / "bad.py").write_text(CLEAN)
        assert repro_main(["lint", str(tmp_path)]) == 0
