"""In-memory span tracer for the benchmark's per-layer metrics.

A :class:`Tracer` wraps the public entry point of every layer that
``repro sweep`` passes through, from the benchmark's own code: nothing
under ``src/`` knows it is being traced.  Each call into a wrapped
function records one :class:`Span` (name, start, end, parent span,
workload id) in memory; :meth:`Tracer.write` dumps them as JSONL when
the run ends, and :meth:`Tracer.metrics` derives each layer's self
time, which is a span's duration minus the part of it that its child
spans cover.

Pool workers are forked while the ``executors.map`` span is open, so
they inherit the wrappers and the open-span stack.  A worker records
its spans locally and ships them home attached to the ``(index,
record)`` pair it already returns; the wrapped ``map_cases`` unpacks
them before the runner sees the pair.  Worker spans overlap in time,
so a layer's self time over a pooled run is summed across processes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

#: The kernel's per-algorithm split covers the stock sweep algorithms.
ALGORITHMS = (
    "att2",
    "att2_optimized",
    "adiamond_s",
    "hurfin_raynal",
    "chandra_toueg",
)


class Span(NamedTuple):
    id: str
    parent: str | None
    name: str
    tag: str
    start: float
    end: float
    count: int
    workload: str


class _Open:
    """A span still on the stack; wrappers fill in its tag and count."""

    __slots__ = ("id", "tag", "count")

    def __init__(self, span_id: str, tag: str) -> None:
        self.id = span_id
        self.tag = tag
        self.count = 0


class _TracedPair(tuple):
    """A worker's ``(index, record)`` pair carrying that call's spans."""

    spans: list


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _process_cpu() -> float:
    """CPU of this process plus every child it has reaped so far."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


class Tracer:
    """Spans and counts for one traced run of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self.executed: list = []  # every case that reached an executor
        self.pool_runs: list[tuple[list, float]] = []  # (cases, CPU s)
        self._stack: list[_Open] = []
        self._serial = 0
        self._home = os.getpid()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[_Open]:
        parent = self._stack[-1] if self._stack else None
        self._serial += 1
        current = _Open(f"{os.getpid()}.{self._serial}", tag)
        self._stack.append(current)
        start = time.perf_counter()
        try:
            yield current
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(
                current.id, parent.id if parent else None, name,
                current.tag, start, end, current.count, self.workload,
            ))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")

    # -- wrapping ----------------------------------------------------------

    def _replace(self, owner: Any, attr: str, make: Callable) -> None:
        original = inspect.getattr_static(owner, attr)
        is_static = isinstance(original, staticmethod)
        fn = original.__func__ if is_static else original
        wrapper = functools.wraps(fn)(make(fn))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _timed(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        tag: Callable[[tuple, Any], str] | None = None,
        count: Callable[[tuple, Any], int] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span called *name*.

        *tag* and *count* derive the span's tag and count from the
        call's arguments and result.
        """
        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name) as span:
                    result = fn(*args, **kwargs)
                    if tag is not None:
                        span.tag = tag(args, result)
                    if count is not None:
                        span.count = count(args, result)
                return result
            return wrapper

        self._replace(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer's entry point where ``repro sweep`` calls it."""
        import repro.engine
        from repro.engine import executors, grids, runner
        from repro.engine.cache import ResultCache
        from repro.engine.results import BatchResult
        from repro.engine.sink import JsonlRecordSink
        from repro.model.schedule import Schedule
        from repro.sim import kernel

        # The package re-exports a ``sweep`` function under the module's name.
        sweep = importlib.import_module("repro.analysis.sweep")
        self._timed(repro.engine, "expand_grid", "grids.expand")
        self._timed(grids, "build_schedule", "grids.build_schedule",
                    count=lambda _args, _result: 1)
        self._timed(Schedule, "digest", "schedule.digest")
        self._timed(executors, "run_case", "record.run_case",
                    tag=lambda args, _result: args[0])
        self._timed(sweep, "run_algorithm", "kernel.execute",
                    count=lambda _args, trace: trace.message_count())
        self._timed(kernel, "build_run_plane", "phase1_plane.build",
                    tag=lambda _args, plane: "off" if plane is None else "on")
        self._timed(runner, "run_cases", "runner.run_cases")
        self._timed(ResultCache, "case_key", "cache.key")
        self._timed(ResultCache, "lookup", "cache.lookup",
                    tag=lambda _args, hit: "miss" if hit is None else "hit")
        self._timed(JsonlRecordSink, "append", "sink.append")
        self._timed(BatchResult, "load_spool", "results.load_spool")
        self._timed(BatchResult, "save", "results.save")
        self._replace(kernel, "compile_schedule", self._compile_wrapper)
        self._replace(ResultCache, "store", self._store_wrapper)
        self._replace(executors, "execute_case", self._execute_case_wrapper)
        for executor in (executors.ProcessExecutor, executors.SerialExecutor):
            self._replace(executor, "map_cases", self._map_cases_wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _compile_wrapper(self, fn: Callable) -> Callable:
        def compile_schedule(schedule: Any) -> Any:
            # A plan is fresh unless the schedule already memoizes one.
            fresh = "_compiled_cache" not in schedule.__dict__
            with self.span("compiled.compile", "fresh" if fresh else "memo"):
                return fn(schedule)
        return compile_schedule

    def _store_wrapper(self, fn: Callable) -> Callable:
        def store(cache: Any, *args: Any, **kwargs: Any) -> None:
            before = cache.store_failures
            with self.span("cache.store") as span:
                fn(cache, *args, **kwargs)
                span.count = cache.store_failures - before
        return store

    def _execute_case_wrapper(self, fn: Callable) -> Callable:
        def execute_case(case: Any) -> Any:
            mark = len(self.spans)
            with self.span("executors.execute_case"):
                pair = fn(case)
            if os.getpid() == self._home:
                return pair
            traced = _TracedPair(pair)
            traced.spans = self.spans[mark:]
            del self.spans[mark:]
            return traced
        return execute_case

    def _map_cases_wrapper(self, fn: Callable) -> Callable:
        def map_cases(executor: Any, cases: Any) -> Iterator:
            cases = list(cases)
            self.executed.extend(cases)
            before = _process_cpu()
            with self.span("executors.map", executor.name):
                pairs = list(fn(executor, cases))
            if executor.name == "processes" and cases:
                self.pool_runs.append((cases, _process_cpu() - before))
            for pair in pairs:
                if isinstance(pair, _TracedPair):
                    self.spans.extend(pair.spans)
                    pair = (pair[0], pair[1])
                yield pair
        return map_cases

    # -- derived metrics ---------------------------------------------------

    def cpu_inflation(self) -> float:
        """Pool CPU over serial CPU on the same cases (0 if no pool ran).

        The serial side runs each pooled case list again on
        ``SerialExecutor`` with the wrappers still installed, so both
        sides pay the same tracing cost; its spans are discarded.  The
        cases go through a pickle round trip first, exactly as they
        reach a pool worker, so neither side starts from memoized plans.
        """
        from repro.engine.executors import SerialExecutor

        pool_cpu = serial_cpu = 0.0
        spans, executed = len(self.spans), len(self.executed)
        for cases, cpu in self.pool_runs:
            fresh = pickle.loads(pickle.dumps(cases))
            before = _cpu(resource.RUSAGE_SELF)
            for _pair in SerialExecutor().map_cases(fresh):
                pass
            serial_cpu += _cpu(resource.RUSAGE_SELF) - before
            pool_cpu += cpu
        del self.spans[spans:], self.executed[executed:]
        return _ratio(pool_cpu, serial_cpu)

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (s), counts and ratios of the traced run."""
        by_id = {span.id: span for span in self.spans}
        children: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        self_s: dict[str, float] = defaultdict(float)
        kernel_by_algorithm: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        tagged: dict[tuple[str, str], int] = defaultdict(int)
        for span in self.spans:
            own = (span.end - span.start) - _covered(
                children.get(span.id, ()), span.start, span.end
            )
            self_s[span.name] += own
            calls[span.name] += 1
            counts[span.name] += span.count
            tagged[span.name, span.tag] += 1
            if span.name == "kernel.execute" and span.parent in by_id:
                # The enclosing run_case span is tagged with the algorithm.
                kernel_by_algorithm[by_id[span.parent].tag] += own

        plans = tagged["compiled.compile", "fresh"]
        schedules = len({case.schedule.digest() for case in self.executed})
        messages = counts["kernel.execute"]
        lookups = calls["cache.lookup"]
        builds = calls["phase1_plane.build"]
        out = {
            "grids.expand_s":
                self_s["grids.expand"] + self_s["grids.build_schedule"],
            "grids.schedules": calls["grids.build_schedule"],
            "schedule.digest_s": self_s["schedule.digest"],
            "compiled.compile_s": self_s["compiled.compile"],
            "compiled.plans": plans,
            "compiled.plans_per_schedule": _ratio(plans, schedules),
            "compiled.ms_per_plan":
                _ratio(1e3 * self_s["compiled.compile"], plans),
            "kernel.execute_s": self_s["kernel.execute"],
            "kernel.messages": messages,
            "kernel.ns_per_message":
                _ratio(1e9 * self_s["kernel.execute"], messages),
            "phase1_plane.engaged_ratio":
                _ratio(tagged["phase1_plane.build", "on"], builds),
            "record.build_s": self_s["record.run_case"],
            "cache.key_s": self_s["cache.key"],
            "cache.lookup_s": self_s["cache.lookup"],
            "cache.hit_ratio": _ratio(tagged["cache.lookup", "hit"], lookups),
            "cache.store_s": self_s["cache.store"],
            "cache.store_failures": counts["cache.store"],
            "executors.map_s":
                self_s["executors.map"] + self_s["executors.execute_case"],
            "sink.append_s": self_s["sink.append"],
            "results.load_spool_s": self_s["results.load_spool"],
            "results.save_s": self_s["results.save"],
            "runner.self_s": self_s["runner.run_cases"],
            "trace.unattributed_s": self_s["trace.run"],
        }
        for algorithm in ALGORITHMS:
            out[f"kernel.execute_s.{algorithm}"] = kernel_by_algorithm[algorithm]
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _covered(intervals: Any, start: float, end: float) -> float:
    """Length of the union of *intervals*, clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
