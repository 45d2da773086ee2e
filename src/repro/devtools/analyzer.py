"""The ``repro lint`` analyzer: parse once, walk once, dispatch to rules.

Per file: parse to an AST, build the :class:`~repro.devtools.rules.
LintContext` (parent map + source lines), collect the rules in scope for
the file's path, and dispatch every node to the rules registered for its
type.  Findings are then filtered through the file's ``# repro:
noqa[...]`` suppressions, the only filter: every finding that survives
them fails the gate.

Suppression syntax, on the offending line::

    risky_thing()  # repro: noqa[DET001]
    other_thing()  # repro: noqa[DET001,BIT002]
    anything()     # repro: noqa

A bare ``noqa`` suppresses every rule on the line; the bracketed form
only the named codes.  Suppressions are deliberate, reviewable
declarations that an invariant holds for a non-obvious reason — each
should carry a justifying comment nearby (see docs/static-analysis.md).

Files that do not parse produce a single ``PARSE`` finding rather than
crashing the run: a syntax error in one module must not hide findings
in fifty others.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.devtools.findings import Finding
from repro.devtools.rules import LintContext, Rule, rules_for

#: Pseudo-code reported for unparsable files (not a registered rule; it
#: cannot be suppressed — broken source always fails the gate).
PARSE_ERROR_CODE = "PARSE"

_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)

#: Directory basenames the file walker never descends into.  The lint
#: fixture corpus is excluded by name: its ``bad_*`` files violate rules
#: *on purpose* and are exercised by tests/devtools/ via lint_source.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".mypy_cache", "lint_fixtures"}
)


def _noqa_map(lines: Sequence[str]) -> dict[int, frozenset[str] | None]:
    """Per-line suppressions: line -> codes, or ``None`` for blanket noqa."""
    suppressions: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(lines, start=1):
        if "noqa" not in line:  # cheap pre-filter
            continue
        match = _NOQA_PATTERN.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                code.strip().upper()
                for code in codes.split(",")
                if code.strip()
            )
    return suppressions


def _suppressed(
    finding: Finding, suppressions: dict[int, frozenset[str] | None]
) -> bool:
    if finding.line not in suppressions:
        return False
    codes = suppressions[finding.line]
    return codes is None or finding.code in codes


def normalize_path(path: str) -> str:
    """The canonical (posix-separator, ``./``-free) form of *path* used
    in findings and for rule scoping; repo-root-relative when linted
    from the repo root, which is how CI runs."""
    return os.path.normpath(path).replace(os.sep, "/")


def lint_source(
    source: str,
    path: str,
    *,
    select: Callable[[Rule], bool] | None = None,
) -> list[Finding]:
    """Lint one module's *source*, scoped as if it lived at *path*.

    ``path`` drives rule scoping (see :func:`~repro.devtools.rules.
    module_parts`) and is stamped into the findings verbatim (after
    normalization) — the fixture corpus lints bad snippets under
    *virtual* hot-path names this way.  ``select`` optionally restricts
    the rule set (e.g. a single code).
    """
    path = normalize_path(path)
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        lineno = exc.lineno or 1
        return [
            Finding(
                path=path,
                line=lineno,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
                source_line=(
                    lines[lineno - 1].strip() if lineno <= len(lines) else ""
                ),
            )
        ]

    ctx = LintContext(path, tree, lines)
    dispatch = rules_for(ctx.rel_parts, select)
    if not dispatch:
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        rules = dispatch.get(type(node))
        if not rules:
            continue
        for rule in rules:
            for bad_node, message in rule.check(node, ctx):
                findings.append(rule.finding(bad_node, message, ctx))
    suppressions = _noqa_map(lines)
    if suppressions:
        findings = [
            finding
            for finding in findings
            if not _suppressed(finding, suppressions)
        ]
    findings.sort()
    return findings


def lint_file(
    path: str, *, select: Callable[[Rule], bool] | None = None
) -> list[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path, select=select)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``*.py`` file under *paths*, deterministically ordered.

    Directories are walked recursively, skipping :data:`EXCLUDED_DIRS`;
    explicit file arguments are taken as-is (whatever their suffix —
    naming a file is opting it in).  Nonexistent paths raise
    ``FileNotFoundError`` — a typo'd path must not pass as "clean".
    """
    for target in paths:
        if os.path.isfile(target):
            yield normalize_path(target)
        elif os.path.isdir(target):
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames[:] = sorted(
                    name
                    for name in dirnames
                    if name not in EXCLUDED_DIRS and not name.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield normalize_path(
                            os.path.join(dirpath, filename)
                        )
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")


@dataclass(frozen=True)
class LintReport:
    """The outcome of one analyzer run over a set of paths.

    ``findings`` are the violations that survived noqa filtering;
    ``files_checked`` the number of modules analyzed.
    """

    findings: tuple[Finding, ...]
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_data(self) -> dict:
        """JSON-safe report (``repro lint --json``), canonically ordered."""
        return {
            "version": 2,
            "files_checked": self.files_checked,
            "counts": self.counts_by_code(),
            "findings": [finding.to_data() for finding in self.findings],
        }


def lint_paths(
    paths: Sequence[str],
    *,
    select: Callable[[Rule], bool] | None = None,
) -> LintReport:
    """Lint every Python file under *paths*.

    Findings are globally sorted — path, then line — so two runs over
    the same tree emit identical reports.
    """
    all_findings: list[Finding] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        all_findings.extend(lint_file(path, select=select))
    all_findings.sort()
    return LintReport(
        findings=tuple(all_findings), files_checked=files_checked
    )
