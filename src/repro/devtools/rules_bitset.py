"""BIT rules: bitset-plane discipline in the simulation hot paths.

PR 7 moved the kernel's per-round bookkeeping onto int bitmasks with
*interned* frozenset views (:mod:`repro.sim.bitset`): structurally equal
sets are one shared object for the life of the process, and per-round
set churn — the n = 1000 bottleneck — is gone.  PR 5 did the same for
messages: the hot paths materialize :class:`~repro.model.messages.Message`
through :func:`~repro.model.messages.fast_message`, which skips the
dataclass constructor and the per-instance hashability probe.

Both optimizations are conventions, not types: nothing stops a future
edit from writing ``frozenset(pids)`` or ``Message(...)`` straight into
``kernel.execute`` and silently reintroducing per-round allocation at
n·rounds·receivers scale.  These rules pin the convention to the three
hot-path files (``sim/kernel.py``, ``sim/view.py``, ``sim/compiled.py``):

* **BIT001** — no direct ``frozenset(...)`` materialization inside a
  function; route through ``bitset.interned_set(mask)`` (pid sets) or
  ``bitset.intern_values`` (value sets).  Module-level constants are
  exempt (they are allocated once).
* **BIT002** — no direct ``Message(...)`` construction; route through
  ``fast_message`` (the caller owns the one-per-broadcast hashability
  probe).

The query-at-a-time reference kernel, the equivalence oracle that keeps
the old idioms on purpose, lives with the tests and is out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.rules import (
    BITSET_HOT_FILES,
    LintContext,
    Rule,
    register_rule,
)


@register_rule
class DirectFrozensetMaterialization(Rule):
    code = "BIT001"
    name = "uninterned-frozenset"
    rationale = (
        "In the simulation hot paths every frozenset materialization "
        "must go through the interning tables (bitset.interned_set / "
        "intern_values): a direct frozenset(...) allocates a fresh "
        "object per round per receiver, exactly the churn the bitset "
        "data plane removed. Module-level constants are exempt."
    )
    node_types = (ast.Call,)
    domains = ("sim",)
    files = BITSET_HOT_FILES

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "frozenset"):
            return
        if ctx.enclosing_function(node) is None:
            return  # one-shot module-level constant
        yield node, (
            "direct frozenset(...) in a simulation hot path; "
            "materialize through bitset.interned_set(mask) / "
            "intern_values so equal sets share one object"
        )


@register_rule
class DirectMessageConstruction(Rule):
    code = "BIT002"
    name = "slow-message-construction"
    rationale = (
        "The hot paths materialize Message through fast_message, which "
        "skips the dataclass constructor and the per-instance "
        "hashability probe (the kernel probes each payload once per "
        "broadcast instead of once per receiver); a direct Message(...) "
        "reintroduces O(n^2)-per-round constructor overhead."
    )
    node_types = (ast.Call,)
    domains = ("sim",)
    files = BITSET_HOT_FILES

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "Message"):
            return
        if ctx.enclosing_function(node) is None:
            return
        yield node, (
            "direct Message(...) construction in a simulation hot path; "
            "use fast_message (callers own the one-per-broadcast "
            "hashability probe)"
        )
