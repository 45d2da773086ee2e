"""Declarative case grids, the seeded schedule-family layer, grid files.

A :class:`GridSpec` describes a whole experiment *declaratively* —
algorithms × schedule families × proposal pattern — and
:func:`expand_grid` turns it into the concrete, ordered list of
:class:`~repro.engine.cases.Case` objects the runner executes.  Scenario
coverage therefore scales by config (bump a family's ``count``) rather
than by writing new loops.

Families come in two flavours:

* **deterministic** kinds wrap the structured workload generators in
  :mod:`repro.workloads` (cascades, coordinator killers, async prefixes…);
  their ``count`` is normally 1 because every instance is identical.
* **seeded** kinds wrap :mod:`repro.sim.random_schedules`; instance *i* of
  a family is built from a seed derived via :func:`case_seed`, a pure
  function of ``(grid seed, family name, i)``.  Derivation uses SHA-256,
  so the expansion is reproducible across processes, machines and Python
  versions — the foundation of the engine's determinism guarantee.

Grid specs are plain data and round-trip through JSON
(:meth:`GridSpec.to_data`/:meth:`GridSpec.from_data`, ``save``/``load``),
so experiment definitions live in versioned files and run with
``python -m repro sweep --grid grid.json`` instead of bespoke scripts.

A :class:`ShardSpec` slices an expanded grid deterministically (round-robin
over case indices), so one grid file can fan out across machines; the
per-shard exports recombine canonically via
:meth:`~repro.engine.results.BatchResult.merge` because every record
carries its originating case index.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.algorithms.registry import (
    available_algorithms,
    source_closure_hash,
)
from repro.engine.cases import Case
from repro.errors import ReproError
from repro.fingerprint import sha256
from repro.model.schedule import Schedule
from repro.sim.random_schedules import (
    random_es_schedule,
    random_proposals,
    random_scs_schedule,
    random_serial_schedule,
)
from repro.types import Round, validate_system_size

#: Family kinds backed by seeded random generators.
SEEDED_KINDS = ("random_es", "random_scs", "random_serial")

#: Family kinds backed by deterministic workload generators.
DETERMINISTIC_KINDS = (
    "failure_free",
    "cascade",
    "hiding_chain",
    "block",
    "killer",
    "async_prefix",
    "rotating",
)


class GridError(ReproError):
    """An ill-formed grid specification."""


def case_seed(master_seed: int, family: str, index: int) -> int:
    """The derived seed for instance *index* of *family* under *master_seed*.

    A pure, platform-independent function (SHA-256 of the identifying
    string), so re-expanding a grid — in any process — regenerates exactly
    the same schedules.
    """
    key = f"{master_seed}:{family}:{index}".encode()
    return int.from_bytes(sha256(key).digest()[:8], "big")


@dataclass(frozen=True)
class FamilySpec:
    """One schedule family of a grid.

    Attributes:
        name: label for records ("workload" column); must be unique within
            a grid.
        kind: one of :data:`SEEDED_KINDS` or :data:`DETERMINISTIC_KINDS`.
        count: how many instances to expand.
        horizon: round horizon for every instance.
        params: extra keyword arguments for the underlying generator, as a
            sorted tuple of pairs (kept hashable so specs can be dict keys).
    """

    name: str
    kind: str
    count: int = 1
    horizon: Round = 12
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SEEDED_KINDS + DETERMINISTIC_KINDS:
            known = ", ".join(SEEDED_KINDS + DETERMINISTIC_KINDS)
            raise GridError(f"unknown family kind {self.kind!r}; known: {known}")
        if self.count < 1:
            raise GridError(f"family {self.name!r}: count must be >= 1")

    def to_data(self) -> dict:
        """A plain-data (JSON-safe) representation of this family."""
        return {
            "name": self.name,
            "kind": self.kind,
            "count": self.count,
            "horizon": self.horizon,
            "params": dict(self.params),
        }

    @staticmethod
    def from_data(data: Mapping) -> "FamilySpec":
        """Rebuild a family from :meth:`to_data` output (validated)."""
        _require_mapping(data, "family")
        _reject_unknown_keys(
            data, ("name", "kind", "count", "horizon", "params"), "family"
        )
        for required in ("name", "kind"):
            if required not in data:
                raise GridError(f"family entry is missing {required!r}")
        params = data.get("params", {})
        if not isinstance(params, Mapping) or not all(
            isinstance(key, str) for key in params
        ):
            raise GridError(
                f"family {data.get('name')!r}: params must be an object "
                f"with string keys, got {params!r}"
            )
        return FamilySpec(
            name=_str_field(data, "name", "family", ""),
            kind=_str_field(data, "kind", "family", ""),
            count=_int_field(data, "count", "family", 1),
            horizon=_int_field(data, "horizon", "family", 12),
            params=tuple(sorted(params.items())),
        )


def family(
    name: str,
    kind: str,
    *,
    count: int = 1,
    horizon: Round = 12,
    **params: Any,
) -> FamilySpec:
    """Convenience constructor: keyword params instead of a pair-tuple."""
    return FamilySpec(
        name=name,
        kind=kind,
        count=count,
        horizon=horizon,
        params=tuple(sorted(params.items())),
    )


@dataclass(frozen=True)
class GridSpec:
    """A declarative (algorithm × schedule-family × proposals) grid.

    Attributes:
        n: number of processes for every case.
        t: resilience bound for every case.
        algorithms: registry names to run each family instance against.
        families: the schedule families to expand.
        seed: master seed for seeded families and random proposals.
        proposal_mode: ``"range"`` (proposals ``0..n-1``, the experiments'
            default) or ``"random"`` (per-case seeded random proposals).
    """

    n: int
    t: int
    algorithms: tuple[str, ...]
    families: tuple[FamilySpec, ...]
    seed: int = 0
    proposal_mode: str = "range"

    def __post_init__(self) -> None:
        validate_system_size(self.n, self.t)
        if not self.algorithms:
            raise GridError("grid needs at least one algorithm")
        if not self.families:
            raise GridError("grid needs at least one schedule family")
        known = available_algorithms()
        for name in self.algorithms:
            if name not in known:
                raise GridError(
                    f"unknown algorithm {name!r}; known: "
                    + ", ".join(sorted(known))
                )
        names = [fam.name for fam in self.families]
        if len(names) != len(set(names)):
            raise GridError(f"duplicate family names in {names}")
        for fam in self.families:
            _check_params(fam)
            if fam.kind != "random_serial":
                continue
            # A serial schedule crashes at most one process per round.
            cap = dict(fam.params).get("max_crashes")
            most = min(cap, self.t) if isinstance(cap, int) else self.t
            if most > fam.horizon:
                raise GridError(
                    f"family {fam.name!r}: random_serial may crash up to "
                    f"{most} processes, one per round, but its horizon "
                    f"has only {fam.horizon} rounds"
                )
        if self.proposal_mode not in ("range", "random"):
            raise GridError(
                f"proposal_mode must be 'range' or 'random', "
                f"got {self.proposal_mode!r}"
            )

    @property
    def case_count(self) -> int:
        """Number of cases :func:`expand_grid` will produce."""
        return len(self.algorithms) * sum(f.count for f in self.families)

    # -- serialization -----------------------------------------------------

    def to_data(self) -> dict:
        """A plain-data (JSON-safe) representation of the whole grid.

        Round-trips losslessly through :meth:`from_data` for any spec
        built via :func:`family` (whose ``params`` are canonically
        sorted); hand-built unsorted param tuples are normalized.
        """
        return {
            "version": GRID_FORMAT_VERSION,
            "n": self.n,
            "t": self.t,
            "algorithms": list(self.algorithms),
            "families": [fam.to_data() for fam in self.families],
            "seed": self.seed,
            "proposal_mode": self.proposal_mode,
        }

    @staticmethod
    def from_data(data: Mapping) -> "GridSpec":
        """Rebuild a grid from :meth:`to_data` output.

        Validation is strict — unknown keys, a missing/foreign ``version``,
        wrongly-typed values and malformed families all raise
        :class:`GridError` with the offending key named.  Every
        experiment-defining grid key is *required* (``to_data`` always
        writes them all): a hand-written file silently defaulting
        ``seed`` or ``proposal_mode`` would run a different experiment
        than its author believes.  Only a family's ``count``/``horizon``/
        ``params`` may be omitted — they take the same defaults as the
        :class:`FamilySpec` constructor itself.
        """
        _require_mapping(data, "grid")
        _reject_unknown_keys(
            data,
            ("version", "n", "t", "algorithms", "families", "seed",
             "proposal_mode"),
            "grid",
        )
        if data.get("version") != GRID_FORMAT_VERSION:
            raise GridError(
                f"unsupported grid format version {data.get('version')!r} "
                f"(this engine reads version {GRID_FORMAT_VERSION})"
            )
        for required in ("n", "t", "algorithms", "families", "seed",
                         "proposal_mode"):
            if required not in data:
                raise GridError(f"grid is missing {required!r}")
        for key in ("algorithms", "families"):
            if not isinstance(data[key], Sequence) or isinstance(
                data[key], (str, bytes)
            ):
                raise GridError(f"grid {key!r} must be a list")
        if not all(isinstance(name, str) for name in data["algorithms"]):
            raise GridError(
                f"grid 'algorithms' must be a list of strings, "
                f"got {data['algorithms']!r}"
            )
        return GridSpec(
            n=_int_field(data, "n", "grid", 0),
            t=_int_field(data, "t", "grid", 0),
            algorithms=tuple(data["algorithms"]),
            families=tuple(
                FamilySpec.from_data(entry) for entry in data["families"]
            ),
            seed=_int_field(data, "seed", "grid", 0),
            proposal_mode=_str_field(data, "proposal_mode", "grid", "range"),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """Canonical JSON: two equal specs serialize byte-identically."""
        return json.dumps(self.to_data(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "GridSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise GridError(f"grid file is not valid JSON: {exc}")
        return GridSpec.from_data(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @staticmethod
    def load(path: str) -> "GridSpec":
        """Read a grid spec from a JSON file (``GridError`` on bad data)."""
        with open(path, "r", encoding="utf-8") as handle:
            return GridSpec.from_json(handle.read())


#: Grid-file format version; bumped whenever the spec schema changes.
GRID_FORMAT_VERSION = 1


def _check_params(fam: FamilySpec) -> None:
    """Reject params *fam*'s generator would refuse when building.

    Schedules are built lazily, so a family the generator rejects must
    fail here, before any case of the grid runs.
    """
    accepted = _accepted_params(fam.kind)
    unknown = sorted(
        name for name, _value in fam.params if name not in accepted
    )
    if unknown:
        raise GridError(
            f"family {fam.name!r}: {fam.kind} takes no params {unknown}; "
            f"known: {', '.join(accepted) or 'none'}"
        )
    cap = dict(fam.params).get("max_crashes")
    if cap is not None and (
        isinstance(cap, bool) or not isinstance(cap, int) or cap < 0
    ):
        raise GridError(
            f"family {fam.name!r}: max_crashes must be an integer >= 0, "
            f"got {cap!r}"
        )


def _require_mapping(data: Any, what: str) -> None:
    if not isinstance(data, Mapping):
        raise GridError(
            f"{what} spec must be an object, got {type(data).__name__}"
        )


def _int_field(data: Mapping, key: str, what: str, default: int) -> int:
    """The integer at *key* (``GridError`` naming the key on a bad type).

    ``bool`` is explicitly excluded — JSON ``true`` is not a count.
    """
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise GridError(
            f"{what} {key!r} must be an integer, got {value!r}"
        )
    return value


def _str_field(data: Mapping, key: str, what: str, default: str) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise GridError(
            f"{what} {key!r} must be a string, got {value!r}"
        )
    return value


def _reject_unknown_keys(
    data: Mapping, known: tuple[str, ...], what: str
) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise GridError(
            f"unknown {what} keys {unknown}; known: " + ", ".join(known)
        )


@dataclass(frozen=True)
class ShardSpec:
    """One deterministic slice of an expanded grid: shard *index* of *count*.

    Selection is round-robin over case indices (``case.index % count ==
    index``), a pure function of the expansion — every machine slicing
    the same grid file agrees on the partition without coordination, and
    round-robin keeps per-shard load balanced even when expensive cases
    cluster (e.g. one algorithm's block of the expansion).  The shards of
    a grid partition its index space, which is exactly the contract
    :meth:`~repro.engine.results.BatchResult.merge` needs to recombine
    shard exports into the whole-grid result in any arrival order.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise GridError(
                f"shard count must be >= 1, got {self.count}"
            )
        if not 0 <= self.index < self.count:
            raise GridError(
                f"shard index must satisfy 0 <= index < count, "
                f"got {self.index}/{self.count}"
            )

    @staticmethod
    def parse(text: str) -> "ShardSpec":
        """Parse the CLI form ``I/N`` (e.g. ``0/4``), validating both parts."""
        head, sep, tail = text.partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(head), int(tail)
        except ValueError:
            raise GridError(
                f"malformed shard {text!r}: expected I/N with integers, "
                f"e.g. 0/4"
            )
        return ShardSpec(index=index, count=count)

    def select(self, cases: Sequence) -> list:
        """The sub-list of *cases* belonging to this shard."""
        return [
            case for case in cases if case.index % self.count == self.index
        ]

    def describe(self) -> str:
        return f"shard {self.index}/{self.count}"


def _generators() -> dict[str, Callable[..., Schedule]]:
    """The schedule generator behind each family kind."""
    from repro.workloads import (
        async_prefix,
        block_crashes,
        coordinator_killer,
        rotating_delays,
        serial_cascade,
        value_hiding_chain,
    )

    return {
        "failure_free": Schedule.failure_free,
        "cascade": serial_cascade,
        "hiding_chain": value_hiding_chain,
        "block": block_crashes,
        "killer": coordinator_killer,
        "async_prefix": async_prefix,
        "rotating": rotating_delays,
        "random_es": random_es_schedule,
        "random_scs": random_scs_schedule,
        "random_serial": random_serial_schedule,
    }


def _accepted_params(kind: str) -> tuple[str, ...]:
    """The family params the generator of *kind* takes as keywords.

    Every generator takes ``n``, ``t`` and the horizon from the grid, and
    the seeded ones the derived seed; the rest of its signature is what
    a family's ``params`` may set.
    """
    from_grid = {"n", "t", "horizon", "seed"}
    signature = inspect.signature(_generators()[kind])
    return tuple(
        name for name in signature.parameters if name not in from_grid
    )


def build_schedule(
    spec: FamilySpec, n: int, t: int, seed: int
) -> Schedule:
    """Instantiate one schedule of *spec* (seeded kinds consume *seed*)."""
    generator = _generators()[spec.kind]
    params: Mapping[str, Any] = dict(spec.params)
    if spec.kind in SEEDED_KINDS:
        return generator(n, t, seed, horizon=spec.horizon, **params)
    return generator(n, t, spec.horizon, **params)


#: Scheme tag mixed into every recipe key; bumped when its meaning changes.
RECIPE_SCHEME = "repro-schedule-recipe-v1"


@functools.cache
def generator_source_hash() -> str | None:
    """Fingerprint of the code that builds a grid instance's schedule.

    :func:`build_schedule` imports :mod:`repro.workloads` when it runs,
    so that package is a root beside this module, whose closure holds the
    seeded generators and ``Schedule``.  ``None`` when the source is
    unavailable.
    """
    from repro import workloads

    return source_closure_hash([sys.modules[__name__], workloads])


class ScheduleRecipe:
    """One grid instance's schedule, built on first use.

    Holds exactly what :func:`build_schedule` takes (family, system size
    and derived seed), so the instance is identified without building
    it: the result cache keys a case by the recipe's :meth:`key`, the
    process pool groups cases by its :meth:`content`, and only a case
    that must execute builds the schedule.  :func:`expand_grid`
    gives every algorithm's case of an instance the same recipe, so
    they all read one :class:`Schedule` object.

    A recipe pickles as its build inputs alone, so the pool worker that
    runs its cases builds the schedule.  Recipes compare, hash and print
    by those inputs, never building.
    """

    __slots__ = ("family", "n", "t", "seed", "_schedule", "_key")

    def __init__(self, family: FamilySpec, n: int, t: int, seed: int) -> None:
        self.family = family
        self.n = n
        self.t = t
        self.seed = seed
        self._schedule: Schedule | None = None
        self._key: str | None = None

    def __reduce__(self) -> tuple[Any, ...]:
        return (ScheduleRecipe, (self.family, self.n, self.t, self.seed))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScheduleRecipe)
            and self.content() == other.content()
        )

    def __hash__(self) -> int:
        return hash(self.content())

    def __repr__(self) -> str:
        return (
            f"ScheduleRecipe({self.family.name!r}, n={self.n}, t={self.t}, "
            f"seed={self.seed})"
        )

    def content(self) -> tuple[str, ...]:
        """What :meth:`build` reads: family kind, params, horizon, n, t, seed.

        Recipes with equal content build equal schedules; params are
        plain data whose ``repr`` is canonical.
        """
        fam = self.family
        return (
            fam.kind, repr(fam.params), str(fam.horizon),
            str(self.n), str(self.t), str(self.seed),
        )

    def key(self) -> str | None:
        """SHA-256 identity of the schedule :meth:`build` returns.

        Hashes the scheme tag, :func:`generator_source_hash` and the
        :meth:`content`, of which a generator is a pure function.  ``None``
        when the generator source is unavailable.  Memoized.
        """
        if self._key is None:
            fingerprint = generator_source_hash()
            if fingerprint is None:
                return None
            payload = "\n".join((RECIPE_SCHEME, fingerprint, *self.content()))
            self._key = sha256(payload.encode()).hexdigest()
        return self._key

    def build(self) -> Schedule:
        """The instance's schedule, built by the first call."""
        if self._schedule is None:
            self._schedule = build_schedule(
                self.family, self.n, self.t, self.seed
            )
        return self._schedule

    def release(self) -> None:
        """Drop the built schedule; the next :meth:`build` builds an
        equal one."""
        self._schedule = None


def expand_family(
    spec: FamilySpec, n: int, t: int, master_seed: int
) -> list[tuple[str, ScheduleRecipe]]:
    """The ``(label, recipe)`` of every instance of *spec*, none built.

    Seeded labels embed the derived seed (``name[i]@seed``) so that a
    failing case can be regenerated directly with the family's generator;
    deterministic instances take seed 0.
    """
    instances = []
    for i in range(spec.count):
        if spec.kind in SEEDED_KINDS:
            seed = case_seed(master_seed, spec.name, i)
            label = f"{spec.name}[{i}]@{seed}"
        else:
            seed = 0
            label = spec.name if spec.count == 1 else f"{spec.name}[{i}]"
        instances.append((label, ScheduleRecipe(spec, n, t, seed)))
    return instances


def expand_grid(spec: GridSpec) -> list[Case]:
    """Expand a grid into its ordered, concrete case list.

    Order is algorithm-major (all of algorithm 0's cases, then algorithm
    1's, …), families in declaration order, instances by index — and the
    ``Case.index`` fields number the expansion sequentially, defining the
    canonical record order for any execution of this grid.  No schedule
    is built here: ``case.schedule`` builds it on first read.
    """
    # Each instance's recipe and proposals are made once and shared by
    # every algorithm's case (proposals depend on the family and index
    # only, never on the algorithm).
    instances: list[tuple[str, ScheduleRecipe, tuple[int, ...]]] = []
    for fam in spec.families:
        for i, (label, recipe) in enumerate(
            expand_family(fam, spec.n, spec.t, spec.seed)
        ):
            if spec.proposal_mode == "random":
                proposals = tuple(
                    random_proposals(
                        spec.n,
                        case_seed(spec.seed, f"{fam.name}/proposals", i),
                    )
                )
            else:
                proposals = tuple(range(spec.n))
            instances.append((label, recipe, proposals))
    cases: list[Case] = []
    for algorithm in spec.algorithms:
        for label, recipe, proposals in instances:
            cases.append(
                Case(len(cases), algorithm, label, recipe, proposals)
            )
    return cases


DEFAULT_SWEEP_ALGORITHMS = (
    "att2",
    "att2_optimized",
    "adiamond_s",
    "hurfin_raynal",
    "chandra_toueg",
)


#: Stock sweep profiles: named multi-grid experiment presets for the CLI.
#: ``large`` is the established large-n configuration — n ∈ {25, 50} at
#: t just under n/3 with the long horizons the stock formula derives (30
#: and 54 rounds); family counts shrink with n so the whole profile
#: stays a minutes-not-hours run on one machine.  ``xlarge`` is the
#: n = 100 milestone the round-view delivery pipeline exists for: one
#: instance per family at horizon 102, the stock harness for scaling
#: studies of the t + 2-round price of indulgence (a smoke CI lane runs
#: it under a wall-clock budget so n = 100 regressions fail fast).
#: ``xxlarge`` is the bitset data plane's milestone — n = 250 with t
#: *pinned* at the xlarge value (rounds-to-decide scales with t, so
#: holding t isolates the per-round data-plane cost that n² drives);
#: run it with the process-pool backend, whose workers build the
#: schedules and plans (the driver's memory grows only by a case and a
#: slotted record per case), and with ``--spool``, so a killed run
#: keeps every case it finished.
SWEEP_PROFILES = ("large", "xlarge", "xxlarge")


def profile_grids(
    profile: str, *, seed: int = 0
) -> list[tuple[str, GridSpec]]:
    """The labelled grids of a named sweep profile (see ``--profile``).

    Returns ``(label, grid)`` pairs; the CLI runs them as one combined
    sweep (indices offset per grid, workloads prefixed with the label)
    so the export is a single mergeable file.
    """
    if profile == "large":
        return [
            ("n25", default_sweep_grid(25, 8, seed=seed,
                                       cases_per_family=4)),
            ("n50", default_sweep_grid(50, 16, seed=seed,
                                       cases_per_family=2)),
        ]
    if profile == "xlarge":
        return [
            ("n100", default_sweep_grid(100, 32, seed=seed,
                                        cases_per_family=1)),
        ]
    if profile == "xxlarge":
        return [
            ("n250", default_sweep_grid(250, 32, seed=seed,
                                        cases_per_family=1)),
        ]
    raise GridError(
        f"unknown sweep profile {profile!r}; known: "
        + ", ".join(SWEEP_PROFILES)
    )


def default_sweep_grid(
    n: int = 5,
    t: int = 2,
    *,
    seed: int = 0,
    algorithms: tuple[str, ...] = DEFAULT_SWEEP_ALGORITHMS,
    cases_per_family: int = 12,
    proposal_mode: str = "random",
) -> GridSpec:
    """The CLI's stock grid: seeded families plus the structured workloads.

    With the defaults this expands to ``5 algorithms × (12 + 6 + 6 seeded
    + 5 structured) = 145`` cases, comfortably above the 100-case floor
    the engine is benchmarked at.
    """
    horizon = max(12, 3 * t + 6)
    families = (
        family("es", "random_es", count=cases_per_family, horizon=horizon),
        family("scs", "random_scs", count=max(1, cases_per_family // 2),
               horizon=horizon),
        family("serial", "random_serial", count=max(1, cases_per_family // 2),
               horizon=horizon),
        family("failure_free", "failure_free", horizon=horizon),
        family("cascade", "cascade", horizon=horizon),
        family("hiding_chain", "hiding_chain", horizon=horizon),
        family("killer2", "killer", horizon=horizon, rounds_per_cycle=2),
        family("killer3", "killer", horizon=horizon, rounds_per_cycle=3),
    )
    return GridSpec(
        n=n,
        t=t,
        algorithms=algorithms,
        families=families,
        seed=seed,
        proposal_mode=proposal_mode,
    )
