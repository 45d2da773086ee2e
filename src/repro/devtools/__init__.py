"""Repo-specific developer tooling: the ``repro lint`` static analyzer.

Every guarantee this reproduction makes — byte-identical sweeps across
backends, trace modes, shards, spools and killed sweeps —
rests on a handful of coding conventions: deterministic iteration order,
seeded-only randomness, interning-only frozenset materialization on the
bitset data plane, pickle hygiene for slots classes, and disciplined
executor teardown.  This package turns those conventions into
machine-checked invariants: an AST-based rule framework
(:mod:`repro.devtools.rules`), the rule set encoding the repo's real
invariants (``rules_*`` modules), and the analyzer front end
(:mod:`repro.devtools.analyzer`) exposed as ``python -m repro lint``.

See ``docs/static-analysis.md`` for the rule catalogue, the invariant
each rule protects, and the suppression syntax (``# repro: noqa[CODE]``),
the only way to keep a finding out of the gate.
"""

from repro.devtools.analyzer import (
    LintReport,
    lint_paths,
    lint_source,
    iter_python_files,
)
from repro.devtools.findings import Finding
from repro.devtools.rules import Rule, all_rules

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]
