"""Name-based registry of all consensus algorithms in the package.

Benches, sweeps and examples refer to algorithms by name; the registry maps
names to :data:`~repro.algorithms.base.AlgorithmFactory` callables together
with the model each algorithm is designed for.

The registry is also the provenance authority for the batch engine's
content-addressed result cache (:mod:`repro.engine.cache`):
:func:`algorithm_source_hash` fingerprints the source code implementing an
algorithm, so cached records are invalidated the moment the code that
produced them changes.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from types import MappingProxyType, ModuleType
from typing import Callable, Mapping

from repro.algorithms.base import AlgorithmFactory
from repro.fingerprint import sha256


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry: how to build an algorithm and where it is sound.

    Attributes:
        name: registry key.
        model: "SCS" or "ES" — the model the algorithm solves consensus in.
        make: zero-argument callable returning a fresh factory.
        summary: one-line description for tables.
    """

    name: str
    model: str
    make: Callable[[], AlgorithmFactory]
    summary: str


@functools.cache
def _entries() -> Mapping[str, AlgorithmInfo]:
    # Imports are local so that `repro.algorithms` never imports
    # `repro.core` at module load time (core depends on algorithms).
    # Built once: every case's factory lookup goes through here.  The
    # table is read-only because every caller shares it.
    from repro.algorithms.amr_leader import AMRLeaderES
    from repro.algorithms.chandra_toueg import ChandraTouegES
    from repro.algorithms.early_deciding import EarlyDecidingSCS
    from repro.algorithms.floodset import FloodSet
    from repro.algorithms.floodset_ws import FloodSetWS
    from repro.algorithms.hurfin_raynal import HurfinRaynalES
    from repro.core.adiamond_s import ADiamondS
    from repro.core.afp2 import AFPlus2
    from repro.core.att2 import ATt2
    from repro.core.att2_optimized import ATt2Optimized

    infos = [
        AlgorithmInfo(
            "floodset", "SCS", lambda: FloodSet,
            "FloodSet: t+1 rounds in SCS (Lynch)",
        ),
        AlgorithmInfo(
            "floodset_ws", "SCS", lambda: FloodSetWS,
            "FloodSetWS: t+1 rounds with perfect failure detection (CGS)",
        ),
        AlgorithmInfo(
            "early_deciding", "SCS", lambda: EarlyDecidingSCS,
            "Early-deciding SCS consensus: min(f+2, t+1) rounds",
        ),
        AlgorithmInfo(
            "chandra_toueg", "ES", lambda: ChandraTouegES,
            "Chandra-Toueg-style ◇S consensus in ES (3 rounds/cycle)",
        ),
        AlgorithmInfo(
            "hurfin_raynal", "ES", lambda: HurfinRaynalES,
            "Hurfin-Raynal-style ◇S consensus in ES (2 rounds/cycle)",
        ),
        AlgorithmInfo(
            "amr_leader", "ES", lambda: AMRLeaderES,
            "Mostefaoui-Raynal leader-based consensus (t < n/3)",
        ),
        AlgorithmInfo(
            "att2", "ES", ATt2.factory,
            "A_{t+2}: the paper's matching algorithm (Figure 2)",
        ),
        AlgorithmInfo(
            "att2_optimized", "ES", ATt2Optimized.factory,
            "A_{t+2} + failure-free round-2 decision (Figure 4)",
        ),
        AlgorithmInfo(
            "adiamond_s", "ES", ADiamondS.factory,
            "A_◇S: the ◇S transposition (Figure 3)",
        ),
        AlgorithmInfo(
            "afp2", "ES", lambda: AFPlus2,
            "A_{f+2}: eventual fast decision, t < n/3 (Figure 5)",
        ),
    ]
    return MappingProxyType({info.name: info for info in infos})


def available_algorithms() -> dict[str, AlgorithmInfo]:
    """All registered algorithms, keyed by name (a fresh dict per call)."""
    return dict(_entries())


def _require(name: str) -> AlgorithmInfo:
    """The registry entry for *name* (raises KeyError with suggestions)."""
    entries = _entries()
    if name not in entries:
        known = ", ".join(sorted(entries))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}")
    return entries[name]


def get_factory(name: str) -> AlgorithmFactory:
    """The factory for algorithm *name* (raises KeyError with suggestions)."""
    return _require(name).make()


# -- source fingerprints (cache invalidation) ------------------------------

_SOURCE_HASH_CACHE: dict[str, str] = {}

#: SHA-256 of each module's source text, by module name: closures
#: overlap (every automaton's holds ``base.py``), so each module is read
#: and hashed once per process however many closures it belongs to.
_MODULE_DIGESTS: dict[str, str] = {}


def _defining_module(value: object) -> ModuleType | None:
    """The module *value* is, or the loaded module that defines it.

    Classes, functions and instances name their defining module in
    ``__module__``; values without one (numbers, strings, containers)
    have none.
    """
    if isinstance(value, ModuleType):
        return value
    name = getattr(value, "__module__", None)
    module = sys.modules.get(name) if isinstance(name, str) else None
    return module if isinstance(module, ModuleType) else None


def _module_closure(roots: list[ModuleType]) -> list[ModuleType]:
    """The transitive repro-module closure of *roots*, sorted by name.

    Walks each module's globals: any ``repro.*`` module referenced there —
    directly, or as the defining module of an imported class/function — is
    pulled in and walked too.  This is what makes the fingerprint cover
    *composed* dependencies, not just inheritance: ``att2`` imports
    ``ChandraTouegES`` as its default underlying consensus and
    ``suspicion.EstimateState`` for its message state, so editing either
    module changes att2's fingerprint.  Modules without a backing file
    (builtins) are skipped.
    """
    seen: dict[str, ModuleType] = {}
    stack = list(roots)
    while stack:
        module = stack.pop()
        name = getattr(module, "__name__", None)
        if name is None or name in seen:
            continue
        if not getattr(module, "__file__", None):
            continue
        seen[name] = module
        for value in vars(module).values():
            dep = _defining_module(value)
            if dep is None:
                continue
            dep_name = dep.__name__
            if dep_name != "repro" and not dep_name.startswith("repro."):
                continue  # only this package, not e.g. site-packages repro*
            if dep_name not in seen:
                stack.append(dep)
    return [seen[name] for name in sorted(seen)]


def _module_digest(module: ModuleType) -> str | None:
    """SHA-256 of *module*'s source text; ``None`` if it is unavailable.

    The text is read through the module's loader, which decodes it as
    ``inspect.getsource`` does; unlike ``inspect.getsource`` it leaves
    no copy of the file in :mod:`linecache` for the rest of the process.
    Memoized per module name.
    """
    name = module.__name__
    digest = _MODULE_DIGESTS.get(name)
    if digest is None:
        try:
            source = module.__loader__.get_source(name)
        except (ImportError, OSError):
            return None
        if source is None:
            return None
        digest = sha256(source.encode()).hexdigest()
        _MODULE_DIGESTS[name] = digest
    return digest


def source_closure_hash(roots: list[ModuleType]) -> str | None:
    """SHA-256 over the per-module source digests of *roots*' closure.

    Hashes ``name NUL digest NUL`` for each module of the transitive
    repro-module closure, in name order, where ``digest`` is the hex
    SHA-256 of that module's source (:func:`_module_digest`).  Returns
    ``None`` when the closure is empty or any member's source text is
    unavailable (frozen interpreter, interactive definitions) — callers
    treat that as "unfingerprintable", i.e. uncacheable.
    """
    modules = _module_closure(roots)
    if not modules:
        return None
    digest = sha256(b"")
    for module in modules:
        source_digest = _module_digest(module)
        if source_digest is None:
            return None
        digest.update(f"{module.__name__}\x00{source_digest}\x00".encode())
    return digest.hexdigest()


def _source_modules(info: AlgorithmInfo) -> list[ModuleType]:
    """Modules whose source defines *info*'s algorithm, sorted by name.

    Roots are the factory's own defining module plus every class in the
    MRO of the produced factory (and of the class a bound ``factory``
    classmethod is attached to); the result is their transitive closure
    (:func:`_module_closure`) — so ``att2_optimized`` depends on the
    ``att2.py`` it subclasses, every automaton depends on ``base.py``,
    and composed modules (underlying consensus, suspicion state) are
    covered too.
    """
    roots: dict[str, ModuleType] = {}
    owner = getattr(info.make, "__self__", None)
    for obj in (owner, info.make()):
        if obj is None:
            continue
        entries = obj.__mro__ if isinstance(obj, type) else [obj]
        for entry in entries:
            module = _defining_module(entry)
            if module is None or not getattr(module, "__file__", None):
                continue
            # Stdlib bases (abc.ABC in every automaton's MRO) carry no
            # algorithm behavior; hashing them would invalidate the whole
            # cache on a Python upgrade — or disable caching entirely
            # where stdlib source is unavailable.
            if module.__name__.partition(".")[0] in sys.stdlib_module_names:
                continue
            roots[module.__name__] = module
    return _module_closure(list(roots.values()))


def algorithm_source_hash(name: str) -> str | None:
    """SHA-256 fingerprint of the source code implementing algorithm *name*.

    A pure content hash over the modules of :func:`_source_modules`, so it
    changes exactly when the algorithm's implementation — or anything in
    its import closure (inherited bases, composed underlying consensus,
    shared helpers) — is edited: the code-change component of the engine's
    cache keys.  Returns ``None`` when source text is unavailable (frozen
    interpreter, interactively-defined factory): such algorithms are
    simply uncacheable.  Raises ``KeyError`` for unregistered names, like
    :func:`get_factory`.

    Hashes are memoized per name, and module digests per module; call
    :func:`clear_source_hash_cache` after reloading an algorithm module
    in-process (tests do).
    """
    if name in _SOURCE_HASH_CACHE:
        return _SOURCE_HASH_CACHE[name]
    result = source_closure_hash(_source_modules(_require(name)))
    if result is not None:
        _SOURCE_HASH_CACHE[name] = result
    return result


def clear_source_hash_cache() -> None:
    """Forget memoized fingerprints and module digests (after in-process
    module edits)."""
    _SOURCE_HASH_CACHE.clear()
    _MODULE_DIGESTS.clear()
