"""Timing spans installed from outside the package by rebinding names.

`pipeline` and `cli` import the functions they call by name (for example
``from .curvature import compute_curvature``), so a wrapper has to replace
the original in every module namespace that holds it, not only in the
defining module. `kernels.*` is reached through the module attribute, so the
defining module is enough there; the namespace scan below covers both cases.
Methods are patched on their class. Everything is restored by `uninstall`.

A `Spans` object records, per span name, inclusive seconds, self seconds
(inclusive minus the time covered by child spans) and call counts. It also
classifies each `pipeline.run` call as an oracle run (inside `oracle_run`) or
a cached run, and splits the loop into steps: a step starts when
`should_full` is called and ends at the next `should_full` call or when
`run` returns, and it is a FULL step when the backbone was called in it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

from worldcache import (
    backbone_sim,
    bench,
    cli,
    config,
    core,
    curvature,
    kernels,
    pipeline,
    predictor,
    skipper,
)

_clock = time.perf_counter

# Functions wrapped in full tracing: (defining module, attribute, recorder).
# The span is named "<module>.<attribute>".
_FUNCTIONS = (
    (backbone_sim, "read_trace", "trace_io"),
    (backbone_sim, "write_trace", "trace_io"),
    (curvature, "push_full", "span"),
    (curvature, "compute_curvature", "span"),
    (curvature, "group_tokens", "group_tokens"),
    (predictor, "predict", "grouping_reader"),
    (skipper, "drift_score", "grouping_reader"),
    (skipper, "should_full", "should_full"),
    (kernels, "curvature_rows", "kernel"),
    (kernels, "blend_rows", "kernel"),
    (kernels, "drift_mean", "kernel"),
    (kernels, "row_norms", "kernel"),
    (bench, "compare_runs", "span"),
    (config, "resolve", "span"),
    (cli, "_sweep_worker", "span"),
)

# Methods wrapped in full tracing: (class, attribute, span).
_METHODS = (
    (core.TokenMatrix, "__init__", "core.tokenmatrix"),
    (pipeline.EulerScheduler, "step", "pipeline.scheduler_step"),
)

BACKBONE_SPAN = "backbone_sim.evaluate"
RUN_SPAN = "pipeline.run"
ORACLE_SPAN = "pipeline.oracle_run"


def _package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "worldcache"]


class Spans:
    """Span recorder for one benchmark phase. `full=False` times only the
    run entry points; `full=True` adds every layer boundary listed above."""

    def __init__(self, backbone_classes, full: bool):
        self.full = full
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.cached_run_durations: list[float] = []
        self.oracle_run_durations: list[float] = []
        self._stack: list[list] = []  # [span name, seconds covered by children]
        self._oracle_depth = 0
        self._step = None  # (start, backbone seconds at start, calls at start, kind)
        self._built: dict[int, object] = {}
        self._read: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

        self._rebind(pipeline.run, self._wrap_run(pipeline.run))
        self._rebind(pipeline.oracle_run, self._wrap_oracle(pipeline.oracle_run))
        if not full:
            return
        for owner, attr, recorder in _FUNCTIONS:
            original = getattr(owner, attr)
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = getattr(self, f"_{recorder}")(name, original)
            self._patch(owner, attr, wrapper)
            self._rebind(original, wrapper)
        for cls, attr, name in _METHODS:
            self._patch(cls, attr, self._span(name, cls.__dict__[attr]))
        for cls in backbone_classes:
            self._patch(cls, "evaluate", self._wrap_evaluate(cls.__dict__["evaluate"]))

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, wrapper) -> None:
        # Public names only: private aliases such as kernels._row_norms_np
        # are the program's internal calls, not a layer boundary.
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original and not attr.startswith("_"):
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- span core ----------------------------------------------------------

    def _enter(self, name) -> float:
        self._stack.append([name, 0.0])
        return _clock()

    def _exit(self, start) -> float:
        elapsed = _clock() - start
        name, children = self._stack.pop()
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(start)

        return wrapper

    # -- run entry points and step accounting ---------------------------------

    def _kind(self) -> str:
        return "oracle" if self._oracle_depth else "cached"

    def _close_step(self, now) -> None:
        if self._step is None:
            return
        start, bb_seconds, bb_calls, kind = self._step
        self._step = None
        backbone = self.seconds[BACKBONE_SPAN] - bb_seconds
        if self.calls[BACKBONE_SPAN] > bb_calls:
            self.counts[f"{kind}.full_steps"] += 1
            self.counts[f"{kind}.full_overhead_s"] += now - start - backbone
        else:
            self.counts[f"{kind}.cache_steps"] += 1
            self.counts[f"{kind}.cache_step_s"] += now - start

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = self._kind()
            start = self._enter(RUN_SPAN)
            try:
                return fn(*args, **kwargs)
            finally:
                if self.full:
                    self._close_step(_clock())
                elapsed = self._exit(start)
                if kind == "cached":
                    self.cached_run_durations.append(elapsed)
                self.counts[f"{kind}.runs"] += 1
                self.counts[f"{kind}.run_s"] += elapsed

        return wrapper

    def _wrap_oracle(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(ORACLE_SPAN)
            self._oracle_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._oracle_depth -= 1
                self.oracle_run_durations.append(self._exit(start))

        return wrapper

    def _should_full(self, name, fn):
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = _clock()
            self._close_step(now)
            self._step = (
                now,
                self.seconds[BACKBONE_SPAN],
                self.calls[BACKBONE_SPAN],
                self._kind(),
            )
            return span(*args, **kwargs)

        return wrapper

    def _wrap_evaluate(self, fn):
        span = self._span(BACKBONE_SPAN, fn)

        @functools.wraps(fn)
        def wrapper(backbone, *args, **kwargs):
            # A costed backbone wraps a plain one: time only the outer call.
            if self._stack and self._stack[-1][0] == BACKBONE_SPAN:
                return fn(backbone, *args, **kwargs)
            before = self.seconds[BACKBONE_SPAN]
            try:
                return span(backbone, *args, **kwargs)
            finally:
                self.counts[f"{self._kind()}.evaluate_s"] += (
                    self.seconds[BACKBONE_SPAN] - before
                )

        return wrapper

    # -- layer-specific counters ---------------------------------------------

    def _kernel(self, name, fn):
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = span(*args, **kwargs)
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            arrays.append(np.asarray(out))
            self.counts["kernels.bytes"] += sum(a.nbytes for a in arrays)
            return out

        return wrapper

    def _group_tokens(self, name, fn):
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            group = span(*args, **kwargs)
            self._built[id(group)] = group  # held so the id stays unique
            self.counts["curvature.groupings_built"] += 1
            return group

        return wrapper

    def _grouping_reader(self, name, fn):
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for arg in (*args, *kwargs.values()):
                key = id(arg)
                if key in self._built and key not in self._read:
                    self._read.add(key)
                    self.counts["curvature.groupings_read"] += 1
            return span(*args, **kwargs)

        return wrapper

    def _trace_io(self, name, fn):
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = span(path, *args, **kwargs)
            self.counts["backbone_sim.trace_bytes"] += os.stat(path).st_size
            return out

        return wrapper

    def forget_groupings(self) -> None:
        """Drop the groupings held for the read ratio (call between iterations)."""
        self._built.clear()
        self._read.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every counter, for per-iteration differences."""
        snap = {f"{k}:s": v for k, v in self.seconds.items()}
        snap.update({f"{k}:self": v for k, v in self.self_seconds.items()})
        snap.update({f"{k}:calls": v for k, v in self.calls.items()})
        snap.update(self.counts)
        return snap
