"""Analyzer front-end behavior: suppressions, scoping, walking, reports."""

from __future__ import annotations

import os

import pytest

from repro.devtools import lint_paths, lint_source, iter_python_files
from repro.devtools import rules as rules_module
from repro.devtools.analyzer import PARSE_ERROR_CODE
from repro.devtools.rules import Rule, all_rules, module_parts, register_rule

HOT_PATH = "src/repro/sim/kernel.py"

BAD_LINE = "def f(pids):\n    return frozenset(pids)\n"


class TestNoqa:
    def test_exact_code_suppresses(self):
        source = (
            "def f(pids):\n"
            "    return frozenset(pids)  # repro: noqa[BIT001]\n"
        )
        assert lint_source(source, HOT_PATH) == []

    def test_multiple_codes_suppress(self):
        source = (
            "def f(pids):\n"
            "    return frozenset(pids)  # repro: noqa[DET004, BIT001]\n"
        )
        assert lint_source(source, HOT_PATH) == []

    def test_blanket_noqa_suppresses(self):
        source = (
            "def f(pids):\n"
            "    return frozenset(pids)  # repro: noqa\n"
        )
        assert lint_source(source, HOT_PATH) == []

    def test_wrong_code_does_not_suppress(self):
        source = (
            "def f(pids):\n"
            "    return frozenset(pids)  # repro: noqa[DET001]\n"
        )
        assert [f.code for f in lint_source(source, HOT_PATH)] == ["BIT001"]

    def test_other_lines_unaffected(self):
        source = (
            "def f(pids):\n"
            "    a = frozenset(pids)  # repro: noqa[BIT001]\n"
            "    return frozenset(a)\n"
        )
        findings = lint_source(source, HOT_PATH)
        assert [(f.code, f.line) for f in findings] == [("BIT001", 3)]

    def test_plain_flake8_noqa_is_not_ours(self):
        source = (
            "def f(pids):\n"
            "    return frozenset(pids)  # noqa\n"
        )
        assert [f.code for f in lint_source(source, HOT_PATH)] == ["BIT001"]

    def test_case_insensitive_codes(self):
        source = (
            "def f(pids):\n"
            "    return frozenset(pids)  # repro: noqa[bit001]\n"
        )
        assert lint_source(source, HOT_PATH) == []


class TestScoping:
    def test_module_parts_strips_through_repro(self):
        assert module_parts("src/repro/sim/kernel.py") == (
            "sim",
            "kernel.py",
        )
        assert module_parts("repro/engine/runner.py") == (
            "engine",
            "runner.py",
        )

    def test_module_parts_outside_repro(self):
        assert module_parts("tests/model/test_messages.py") == (
            "tests",
            "model",
            "test_messages.py",
        )

    def test_hot_path_rule_silent_outside_hot_files(self):
        assert lint_source(BAD_LINE, "src/repro/sim/bitset.py") == []
        assert lint_source(BAD_LINE, "src/repro/analysis/metrics.py") == []

    def test_everywhere_rule_fires_anywhere(self):
        source = "import random\nx = random.random()\n"
        assert [f.code for f in lint_source(source, "scripts/tool.py")] == [
            "DET002"
        ]


class TestParseErrors:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", HOT_PATH)
        assert len(findings) == 1
        assert findings[0].code == PARSE_ERROR_CODE
        assert findings[0].line == 1

    def test_parse_finding_cannot_be_suppressed(self):
        findings = lint_source(
            "def broken(:  # repro: noqa\n", HOT_PATH
        )
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]


class TestFileWalker:
    def test_skips_fixture_corpus_and_hidden_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "lint_fixtures").mkdir()
        (tmp_path / "pkg" / "lint_fixtures" / "bad.py").write_text("x = 1\n")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        files = list(iter_python_files([str(tmp_path)]))
        assert [os.path.basename(f) for f in files] == ["mod.py"]

    def test_explicit_file_argument_is_taken_as_is(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert list(iter_python_files([str(target)])) == [
            str(target).replace(os.sep, "/")
        ]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files(["definitely/not/here"]))

    def test_deterministic_order(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("x = 1\n")
        files = [
            os.path.basename(f)
            for f in iter_python_files([str(tmp_path)])
        ]
        assert files == ["a.py", "b.py", "c.py"]


class TestLintPaths:
    def test_report_aggregates_and_sorts(self, tmp_path):
        (tmp_path / "z.py").write_text("import random\nr = random.random()\n")
        (tmp_path / "a.py").write_text(
            "import random\nq = random.choice([1])\n"
        )
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 2
        assert not report.clean
        assert report.counts_by_code() == {"DET002": 2}
        assert [os.path.basename(f.path) for f in report.findings] == [
            "a.py",
            "z.py",
        ]

    def test_json_payload_shape(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        data = lint_paths([str(tmp_path)]).to_data()
        assert data["version"] == 2
        assert data["files_checked"] == 1
        assert data["findings"] == []
        assert data["counts"] == {}


class TestRegistry:
    def test_duplicate_code_is_rejected(self, monkeypatch):
        # A copied rule class that reuses a code must not turn the first
        # rule off.  The registry is swapped for a copy, so even a
        # registration that wrongly succeeds cannot leak into other tests.
        before = all_rules()  # loads every rule before the swap
        monkeypatch.setattr(
            rules_module, "_REGISTRY", dict(rules_module._REGISTRY)
        )
        taken = before[0].code

        class Copy(Rule):
            code = taken

        with pytest.raises(ValueError, match=taken):
            register_rule(Copy)
        assert all_rules() == before
