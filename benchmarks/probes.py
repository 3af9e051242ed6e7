"""Wrappers the benchmark installs around the package's public functions.

``RunProbe`` is on in every round. Per ``run()`` call it takes four instants
(entry, first ``stats()`` call = first iteration, CSV write, exit) and keeps
the returned trace and the fixed point that ``run()`` computed, for the
checks. That is one extra Python call per iteration, so the untraced rounds
stay untraced in effect.

``Tracer`` is on only in traced rounds. It records a span around every call
into each layer's public functions, keeps the spans in memory, and turns them
into per-layer self times (in reference seconds) and counts.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gossipopt" or name.startswith("gossipopt."))]


class Patches:
    """Replace package callables with wrappers, and put the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, fn, wrapper) -> None:
        """Rebind ``fn`` in every package module that imported it."""
        found = False
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn!r} is bound in no gossipopt module")

    def method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class RunRecord:
    """One ``run()`` call as the probe saw it; instants are ``perf_counter`` values."""

    config: object
    start: float
    built: float | None = None  # first stats() call: the first iteration
    csv: float | None = None
    end: float | None = None
    trace: object = None
    fixed_point: object = None

    @property
    def algorithm(self) -> str:
        return self.config.algorithm["algorithm"]

    @property
    def solve_end(self) -> float:
        return self.csv if self.csv is not None else self.end


class RunProbe:
    """Set-up and solve boundaries of every ``run()``, including tune_extra's."""

    def __init__(self, package):
        self.records: list[RunRecord] = []
        self._patches = Patches()
        self._pkg = package

    def _current(self) -> RunRecord | None:
        return self.records[-1] if self.records and self.records[-1].end is None else None

    def install(self) -> None:
        pkg, records = self._pkg, self.records
        run, fixed_point = pkg.harness.run, pkg.metrics.fixed_point
        write_csv = pkg.harness.RunTrace.write_csv

        @functools.wraps(run)
        def probed_run(config):
            record = RunRecord(config=config, start=perf_counter())
            records.append(record)
            try:
                record.trace = run(config)
            finally:
                record.end = perf_counter()
            return record.trace

        @functools.wraps(fixed_point)
        def probed_fixed_point(*args, **kwargs):
            fp = fixed_point(*args, **kwargs)
            current = self._current()
            if current is not None:
                current.fixed_point = fp
            return fp

        @functools.wraps(write_csv)
        def probed_write_csv(trace, path):
            current = self._current()
            if current is not None:
                current.csv = perf_counter()
            return write_csv(trace, path)

        self._patches.function(run, probed_run)
        self._patches.function(fixed_point, probed_fixed_point)
        self._patches.method(pkg.harness.RunTrace, "write_csv", probed_write_csv)
        # the harness calls stats() once at the top of every iteration
        for cls in vars(pkg.algorithms).values():
            if isinstance(cls, type) and cls.__module__ == pkg.algorithms.__name__ and "stats" in cls.__dict__:
                self._patches.method(cls, "stats", self._iteration_mark(cls.__dict__["stats"]))

    def _iteration_mark(self, stats):
        @functools.wraps(stats)
        def probed_stats(obj):
            current = self._current()
            if current is not None and current.built is None:
                current.built = perf_counter()
            return stats(obj)
        return probed_stats

    def uninstall(self) -> None:
        self._patches.undo()


# layer -> (module, public callables); "Class.method" names a method
LAYERS = (
    ("graphs.build", "graphs", ("graph_from_spec", "build_line_graph", "build_cycle_graph",
                                "build_complete_graph", "build_erdos_renyi")),
    ("graphs.gossip_matrix", "graphs", ("gossip_matrix", "metropolis_weights")),
    ("graphs.spectral", "graphs", ("spectral_data",)),
    ("graphs.diameter", "graphs", ("diameter",)),
    ("losses.data", "losses", ("generate_quadratic", "parse_libsvm", "partition_logistic")),
    ("losses.centralized_solve", "losses", ("centralized_solve",)),
    ("losses.values", "losses", ("QuadraticFamily.values", "LogisticFamily.values")),
    ("losses.gradients", "losses", ("QuadraticFamily.gradients", "LogisticFamily.gradients")),
    ("backtracking", "backtracking", ("backtrack_batch", "backtrack")),
    ("algorithms.step", "algorithms", ("adaptive_step", "baseline_adaptive_step", "ExtraAlgorithm.step")),
    ("algorithms.gossip", "algorithms", ("NeighborExchange.gossip_rows",)),
    ("algorithms.consensus", "algorithms", ("local_min_consensus", "local_max_consensus")),
    ("metrics.fixed_point", "metrics", ("fixed_point",)),
    ("metrics.merit_sc", "metrics", ("merit_sc",)),
    ("metrics.merit_cvx", "metrics", ("merit_cvx",)),
    ("harness.run", "harness", ("run", "tune_extra")),
    ("harness.csv", "harness", ("RunTrace.write_csv",)),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)


@dataclass
class Spans:
    """Spans of one traced round as columns; ``parent`` is -1 at the top."""

    op: np.ndarray
    layer: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    trials: int = 0
    searches: int = 0
    rows: int = 0

    def durations(self, clock) -> np.ndarray:
        """Span durations in reference seconds (see refclock.py)."""
        ref = clock.reference_times(np.concatenate((self.start, self.end)))
        return ref[len(self.start):] - ref[:len(self.start)]

    def self_time(self, duration: np.ndarray) -> np.ndarray:
        child = np.zeros(len(self.op))
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], duration[nested])
        return duration - child

    def under(self, layer: int) -> np.ndarray:
        """Mask of spans with an ancestor (or self) in ``layer``; parents precede children."""
        inside = self.layer == layer
        for i in np.flatnonzero(self.parent >= 0):
            inside[i] |= inside[self.parent[i]]
        return inside


@dataclass
class Tracer:
    """Span recorder for traced rounds."""

    package: object
    op: int = 0
    _spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _counts: dict = field(default_factory=lambda: {"trials": 0, "searches": 0, "rows": 0})
    _patches: Patches = field(default_factory=Patches)

    def _wrap(self, layer: int, fn, count=None):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, layer, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if count is not None:
                count(result)
            return result

        return traced

    def _count_trials(self, result) -> None:
        self._counts["trials"] += int(np.sum(result[1]))
        self._counts["searches"] += int(np.size(result[1]))

    def _count_rows(self, trace) -> None:
        self._counts["rows"] += len(trace.rows)

    def install(self) -> None:
        counters = {"backtrack_batch": self._count_trials, "run": self._count_rows}
        for layer_id, (layer, module, names) in enumerate(LAYERS):
            mod = getattr(self.package, module)
            found = 0
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if owner is None or not hasattr(owner, attr):
                    continue
                wrapper = self._wrap(layer_id, getattr(owner, attr), counters.get(name))
                if owner_name:
                    self._patches.method(owner, attr, wrapper)
                else:
                    self._patches.function(getattr(owner, attr), wrapper)
                found += 1
            if not found:
                raise LookupError(f"no public callable of layer {layer} found in gossipopt.{module}")

    def uninstall(self) -> Spans:
        """Remove the wrappers and hand over this round's spans."""
        self._patches.undo()
        cols = np.array(self._spans, dtype=float).reshape(-1, 5)
        spans = Spans(
            op=cols[:, 0].astype(int),
            layer=cols[:, 1].astype(int),
            parent=cols[:, 2].astype(int),
            start=cols[:, 3],
            end=cols[:, 4],
            **self._counts,
        )
        self._spans.clear()
        self._counts.update(trials=0, searches=0, rows=0)
        return spans
