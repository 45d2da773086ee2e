"""ORC rules: failure-handling discipline for the executors and engine.

The engine's reliability story is explicit: every failure is *observed*
— counted or reported — never swallowed; and every pool is torn down
deterministically, because a worker process leaked past its batch holds
memory and file descriptors until GC feels like collecting it (the
pool-drain bug ORC003 guards against).  The module keeps its historical
name; the rules police :mod:`repro.engine.executors` and every other
module they scope to.

* **ORC001** — no bare ``except:``.  It catches ``SystemExit`` and
  ``KeyboardInterrupt``, making workers unkillable and hiding infra
  failures from whoever has to handle them.
* **ORC002** — no ``except Exception: pass`` (or ``BaseException``).
  Swallowing the broadest classes silently converts an infra failure
  into a hang or a wrong count; narrow the type (an ``OSError`` touch
  failure is fine to drop) or record the failure.
* **ORC003** — pool lifecycle: ``multiprocessing``/``concurrent.futures``
  pools must be created as ``with`` contexts, and their results drained
  *inside* the ``with`` block — a generator that ``yield``s lazily from
  inside the context leaks live workers whenever the consumer abandons
  the iterator mid-stream (collect to a list inside, yield outside).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.rules import LintContext, Rule, register_rule

#: Constructor names that produce worker pools, however imported.
_POOL_NAMES = frozenset(
    {"Pool", "ThreadPool", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)


def _callee_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_pool_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _callee_name(node) in _POOL_NAMES


@register_rule
class BareExcept(Rule):
    code = "ORC001"
    name = "bare-except"
    rationale = (
        "A bare except: catches SystemExit and KeyboardInterrupt, making "
        "worker loops unkillable and hiding infra failures from their "
        "handlers; name the exception type (and at minimum count the "
        "failure)."
    )
    node_types = (ast.ExceptHandler,)
    domains = None

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield node, (
                "bare except: catches SystemExit/KeyboardInterrupt; "
                "name the exception type"
            )


@register_rule
class SilentBroadSwallow(Rule):
    code = "ORC002"
    name = "silent-broad-swallow"
    rationale = (
        "except Exception: pass silently converts infra failures into "
        "hangs and wrong counts; the reliability layer requires every "
        "failure observed — narrow the exception type or record the "
        "failure before continuing."
    )
    node_types = (ast.ExceptHandler,)
    domains = None

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        assert isinstance(node, ast.ExceptHandler)
        if not (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        ):
            return
        if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            yield node, (
                f"except {node.type.id}: pass swallows every failure "
                f"silently; narrow the type or record the failure"
            )


def _yields_outside_nested_defs(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Yield/YieldFrom nodes lexically in *body*, not inside nested defs."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # a nested function's yields are its own business
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class PoolLifecycle(Rule):
    code = "ORC003"
    name = "pool-lifecycle"
    rationale = (
        "Pools must be context-managed and their results drained inside "
        "the with block: a pool constructed bare leaks workers on any "
        "exception path, and a generator yielding lazily from inside "
        "the context keeps worker processes alive until GC whenever the "
        "consumer abandons the iterator mid-stream (the PR 6 pool-drain "
        "bug). Collect results to a list inside the with, yield outside."
    )
    node_types = (ast.Call, ast.With)
    domains = None

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        if isinstance(node, ast.Call):
            yield from self._check_constructor(node, ctx)
        elif isinstance(node, ast.With):
            yield from self._check_lazy_drain(node)

    def _check_constructor(
        self, node: ast.Call, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        if not _is_pool_call(node):
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.withitem):
            return
        yield node, (
            f"{_callee_name(node)}(...) created outside a with "
            f"statement; context-manage pools so workers are torn down "
            f"on every exit path"
        )

    def _check_lazy_drain(
        self, node: ast.With
    ) -> Iterable[tuple[ast.AST, str]]:
        if not any(
            _is_pool_call(item.context_expr) for item in node.items
        ):
            return
        for yield_node in _yields_outside_nested_defs(node.body):
            yield yield_node, (
                "yield inside a pool's with block hands control to the "
                "consumer while workers are alive; drain results to a "
                "list inside the block and yield after it exits"
            )
