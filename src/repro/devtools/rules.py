"""The pluggable rule framework behind ``repro lint``.

A rule is a small object with a **code** (``DET001``), the **node types**
it wants to see, an optional **path scope**, and a ``check`` method
producing ``(node, message)`` pairs.  The analyzer
(:mod:`repro.devtools.analyzer`) parses each file once, walks the tree
once, and dispatches every node to the rules registered for its type —
adding a rule never adds a traversal.

Path scoping keeps rules honest about *where* an invariant holds: the
determinism rules apply to the record-producing packages, the bitset
rules only to the simulation hot-path files, and so on.  Scope is
matched against the module's path *parts* (the segments after the
``repro`` package root when present), so fixture files in the test
corpus can opt into any scope via a virtual path — no special-casing in
the rules themselves.

Rules self-register at import time (:func:`register_rule`); the
``rules_*`` modules in this package are imported by the analyzer, so the
whole set is always loaded.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator

from repro.devtools.findings import Finding

#: The record-producing packages whose outputs feed exports, cache keys
#: and sweep records — where iteration order and seeded randomness are
#: load-bearing.  ``engine`` is included: its merge/expansion order IS
#: the byte-identity contract.
DETERMINISTIC_DOMAINS = (
    "sim", "algorithms", "core", "model", "detectors", "workloads",
    "lowerbound", "engine",
)

#: The subset of :data:`DETERMINISTIC_DOMAINS` where wall-clock reads are
#: banned outright.  ``engine`` is deliberately absent: cache gc ages and
#: hit recency legitimately read clocks — nothing they feed is part of a
#: record.
CLOCK_FREE_DOMAINS = (
    "sim", "algorithms", "core", "model", "detectors", "workloads",
    "lowerbound",
)

#: The simulation hot-path files PR 7 moved onto the bitset data plane
#: (plus the batched Phase-1 plane, which lives entirely on it); the
#: BIT rules hold these (and only these) to interning discipline.
BITSET_HOT_FILES = ("kernel.py", "view.py", "compiled.py", "phase1_plane.py")

#: Packages whose objects cross the executor pickle boundary.
PICKLE_DOMAINS = ("model", "sim", "engine")


class LintContext:
    """Everything a rule may ask about the module under analysis.

    Built once per file by the analyzer: the parsed tree, the source
    lines, the path parts used for scope matching, and a parent map so
    rules can walk *up* (is this call a ``with`` item? is it inside a
    function? a ``__hash__`` method?) without each rule re-traversing.
    """

    def __init__(self, path: str, tree: ast.AST, lines: list[str]):
        self.path = path
        self.tree = tree
        self.lines = lines
        self.rel_parts = module_parts(path)
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes, innermost first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def is_discarded_expression(self, node: ast.AST) -> bool:
        """True iff *node* is the expression of a bare ``Expr`` statement
        — called for effect (e.g. a fail-fast hashability probe), its
        value never feeding anything."""
        parent = self.parent(node)
        return isinstance(parent, ast.Expr)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def module_parts(path: str) -> tuple[str, ...]:
    """The scope-matching parts of *path*.

    The segments after the last ``repro`` package directory when the
    path contains one (``src/repro/sim/kernel.py`` → ``("sim",
    "kernel.py")``), the full normalized parts otherwise — so test-tree
    paths still match the unscoped rules and fixture files can claim any
    scope through a virtual path.
    """
    parts = tuple(part for part in path.replace("\\", "/").split("/") if part)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1:]
    return parts


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`;
    instances are stateless (one shared instance serves every file).

    Attributes:
        code: unique rule id, ``<GROUP><NNN>`` (what a suppression
            names).
        name: short kebab-case label for listings.
        rationale: one-paragraph statement of the invariant protected.
        node_types: AST node classes the rule wants dispatched.
        domains: path segments the rule applies to (``None`` =
            everywhere).
        files: basenames the rule applies to within its domains
            (``None`` = every file).
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    node_types: tuple[type, ...] = ()
    domains: tuple[str, ...] | None = None
    files: tuple[str, ...] | None = None

    def applies_to(self, parts: tuple[str, ...]) -> bool:
        """Whether the rule is in scope for a module with these path parts."""
        if self.domains is not None:
            if not any(part in self.domains for part in parts[:-1]):
                return False
        if self.files is not None:
            if not parts or parts[-1] not in self.files:
                return False
        return True

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        """Yield ``(node, message)`` for each violation at *node*."""
        raise NotImplementedError

    def finding(self, node: ast.AST, message: str, ctx: LintContext) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            path=ctx.path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            source_line=ctx.source_line(lineno),
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its code.

    Codes are unique: registering a second rule under a taken code
    raises ``ValueError`` rather than silently turning the first off.
    """
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    taken = _REGISTRY.get(rule.code)
    if taken is not None:
        raise ValueError(
            f"rule {cls.__name__} reuses code {rule.code} of "
            f"{type(taken).__name__}"
        )
    _REGISTRY[rule.code] = rule
    return cls


def _load_stock_rules() -> None:
    # Imported lazily so the registry exists before the rule modules
    # (which use @register_rule at module level) are executed.
    from repro.devtools import (  # noqa: F401  (import-for-effect)
        rules_bitset,
        rules_determinism,
        rules_orchestrator,
        rules_pickle,
    )


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code (stock set auto-loaded)."""
    _load_stock_rules()
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def rules_for(
    parts: tuple[str, ...], select: Callable[[Rule], bool] | None = None
) -> dict[type, list[Rule]]:
    """The in-scope rules for a module, indexed by AST node type."""
    dispatch: dict[type, list[Rule]] = {}
    for rule in all_rules():
        if select is not None and not select(rule):
            continue
        if not rule.applies_to(parts):
            continue
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    return dispatch
