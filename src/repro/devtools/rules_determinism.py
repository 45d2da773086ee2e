"""DET rules: iteration order, seeded randomness, clocks, address hashes.

The engine's headline contract — the same grid produces byte-identical
exports across backends, pool sizes, trace modes, shards and spools —
holds only while every record-feeding computation is a pure function of
the case.  These rules ban the four classic ways Python code silently
stops being one:

* **DET001** — iterating a set in an order-sensitive position.  Python
  set iteration order depends on insertion history and (for strings) on
  ``PYTHONHASHSEED``; two processes can disagree.  Wrap in ``sorted()``.
* **DET002** — the module-level ``random.*`` API (shared, unseeded
  global state) and OS entropy (``os.urandom``, ``uuid.uuid4``,
  ``random.SystemRandom``).  The repo's one allowed idiom is an explicit
  seeded ``random.Random(seed)`` instance, as in
  ``sim/random_schedules.py``.
* **DET003** — wall-clock and monotonic-clock reads inside the
  record-producing packages.  Timing is for benchmarks and the engine's
  operational layer (timeouts, gc ages), never for anything a record,
  cache key or export is derived from.
* **DET004** — ``id()`` (memory addresses vary per process) and builtin
  ``hash()`` (salted per process for str/bytes) feeding values.  A bare
  ``hash(x)`` expression statement — the kernel's fail-fast hashability
  probe — and ``__hash__`` implementations are allowed: neither value
  escapes the process.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.rules import (
    CLOCK_FREE_DOMAINS,
    DETERMINISTIC_DOMAINS,
    LintContext,
    Rule,
    register_rule,
)


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactically-certain set expressions: literals, comprehensions,
    and direct ``set(...)``/``frozenset(...)`` calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


#: Callables through which set iteration order cannot leak: they either
#: impose an order themselves or reduce order-insensitively.
_ORDER_SAFE_CALLEES = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

#: Callables that *preserve* their argument's iteration order, so a set
#: argument leaks its order into the result.
_ORDER_LEAKING_CALLEES = frozenset({"list", "tuple", "enumerate"})


@register_rule
class UnsortedSetIteration(Rule):
    code = "DET001"
    name = "unsorted-set-iteration"
    rationale = (
        "Set iteration order is insertion- and hash-seed-dependent; any "
        "order-sensitive consumption of it (loops, comprehensions, "
        "list()/tuple() conversion, str.join) can differ between two "
        "processes and break the byte-identical-exports contract. "
        "Wrap the set in sorted()."
    )
    node_types = (ast.For, ast.comprehension, ast.Call)
    domains = None  # everywhere: order discipline is repo-wide

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        if isinstance(node, ast.For):
            if _is_set_expression(node.iter):
                yield node.iter, (
                    "iteration over a set has nondeterministic order; "
                    "wrap it in sorted()"
                )
        elif isinstance(node, ast.comprehension):
            if _is_set_expression(node.iter):
                yield node.iter, (
                    "comprehension over a set has nondeterministic order; "
                    "wrap it in sorted()"
                )
        elif isinstance(node, ast.Call):
            yield from self._check_call(node)

    def _check_call(
        self, node: ast.Call
    ) -> Iterable[tuple[ast.AST, str]]:
        func = node.func
        if isinstance(func, ast.Name):
            if (
                func.id in _ORDER_LEAKING_CALLEES
                and node.args
                and _is_set_expression(node.args[0])
            ):
                yield node, (
                    f"{func.id}() of a set captures nondeterministic "
                    f"order; wrap the set in sorted()"
                )
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            if node.args and _is_set_expression(node.args[0]):
                yield node, (
                    "str.join over a set concatenates in nondeterministic "
                    "order; wrap the set in sorted()"
                )


@register_rule
class UnseededRandomness(Rule):
    code = "DET002"
    name = "unseeded-randomness"
    rationale = (
        "The module-level random.* API mutates shared unseeded global "
        "state, and OS entropy is nondeterministic by construction; "
        "records, schedules and cache keys must derive all randomness "
        "from an explicit seeded random.Random(seed) instance (the "
        "sim/random_schedules.py idiom) so any case can be regenerated "
        "from its seed."
    )
    node_types = (ast.Attribute,)
    domains = None  # everywhere: benches and tests must replay too

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Attribute)
        value = node.value
        if not isinstance(value, ast.Name):
            return
        if value.id == "random":
            if node.attr == "Random":
                return  # the allowed, seedable idiom
            yield node, (
                f"random.{node.attr} uses the shared global RNG"
                + (
                    " (OS entropy)"
                    if node.attr == "SystemRandom"
                    else ""
                )
                + "; use an explicit seeded random.Random(seed) instance"
            )
        elif value.id == "os" and node.attr == "urandom":
            yield node, (
                "os.urandom is OS entropy; derive randomness from an "
                "explicit seed"
            )
        elif value.id == "uuid" and node.attr in ("uuid1", "uuid4"):
            yield node, (
                f"uuid.{node.attr} is nondeterministic; derive ids from "
                f"case content (e.g. SHA-256 digests) instead"
            )
        elif value.id == "secrets":
            yield node, (
                "the secrets module is OS entropy; derive randomness "
                "from an explicit seed"
            )


_CLOCK_ATTRS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
        "clock_gettime", "clock_gettime_ns",
    }
)

_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


@register_rule
class WallClockInDeterministicCode(Rule):
    code = "DET003"
    name = "wall-clock-read"
    rationale = (
        "The record-producing packages must be pure functions of their "
        "inputs; a clock read anywhere in them can only feed "
        "nondeterminism into records, cache keys or exports. Timing "
        "belongs in benchmarks/ and the engine's operational layer "
        "(timeouts, gc ages), which are outside this rule's scope."
    )
    node_types = (ast.Attribute,)
    domains = CLOCK_FREE_DOMAINS

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Attribute)
        value = node.value
        if not isinstance(value, ast.Name):
            return
        if value.id == "time" and node.attr in _CLOCK_ATTRS:
            yield node, (
                f"time.{node.attr} read in a deterministic module; "
                f"records must not depend on clocks"
            )
        elif (
            value.id in ("datetime", "date")
            and node.attr in _DATETIME_ATTRS
        ):
            yield node, (
                f"{value.id}.{node.attr} read in a deterministic module; "
                f"records must not depend on clocks"
            )


@register_rule
class AddressOrSaltedHash(Rule):
    code = "DET004"
    name = "address-or-salted-hash"
    rationale = (
        "id() is a memory address (differs per process) and builtin "
        "hash() is salted per process for str/bytes (PYTHONHASHSEED); "
        "neither may feed a value that reaches a record, sort key or "
        "cache key. Use repro.fingerprint.sha256 digests for content "
        "addressing. A bare hash(x) statement (fail-fast hashability "
        "probe), __hash__ "
        "implementations, and hash-to-hash comparisons like "
        "hash(a) == hash(b) (the __hash__ contract test) are allowed: "
        "the value never leaves the process."
    )
    node_types = (ast.Call,)
    domains = DETERMINISTIC_DOMAINS

    def check(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterable[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Name):
            return
        if func.id == "id":
            yield node, (
                "id() is a per-process memory address; key on content "
                "(names, digests, indices) instead"
            )
        elif func.id == "hash":
            if ctx.is_discarded_expression(node):
                return  # fail-fast hashability probe: value discarded
            enclosing = ctx.enclosing_function(node)
            if enclosing is not None and enclosing.name == "__hash__":
                return  # in-process hashing protocol
            if self._in_hash_to_hash_comparison(node, ctx):
                return  # hash(a) == hash(b): the __hash__ contract test
            yield node, (
                "builtin hash() is salted per process (PYTHONHASHSEED); "
                "use repro.fingerprint.sha256 for any value that crosses "
                "a process or lands in a record"
            )

    @staticmethod
    def _in_hash_to_hash_comparison(
        node: ast.Call, ctx: LintContext
    ) -> bool:
        """True for ``hash(a) == hash(b)``-shaped comparisons: every
        comparand is itself a ``hash(...)`` call, so the salted values
        only ever meet each other inside this process."""
        parent = ctx.parent(node)
        if not isinstance(parent, ast.Compare):
            return False
        comparands = [parent.left, *parent.comparators]
        return all(
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "hash"
            for expr in comparands
        )
