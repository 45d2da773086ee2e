"""The tree lints itself: ``repro lint`` over the shipped code is clean.

This is the acceptance gate from the static-analysis PR wired into
tier-1: any change that reintroduces an uninterned hot-path frozenset, a
lazily-drained pool, unseeded randomness, a clock read in a
record-producing package, or a pickle-unsafe slots class fails the suite
immediately — not in some later nightly.
"""

from __future__ import annotations

import os

from repro.devtools import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _root(*parts: str) -> str:
    return os.path.join(REPO_ROOT, *parts)


def test_shipped_tree_is_lint_clean():
    report = lint_paths([_root("src"), _root("tests"), _root("benchmarks")])
    assert report.clean, "\n".join(f.describe() for f in report.findings)
    assert report.files_checked > 100

