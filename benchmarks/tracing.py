"""Span tracing around kp5's public functions, installed from outside the package.

kp5 modules import each other's functions by name (``from .symbols import
dealias``), so wrapping a function in its defining module alone would miss
most callers.  ``Tracer`` therefore rebinds every name under which a kp5
module, or the declaring namespace (``numpy.fft``, ``scipy.fft``), holds the
original object, and ``uninstall`` puts every original back and checks it.

Spans are aggregated in memory per name: calls, inclusive time, self time
(duration minus the union of the intervals its child spans cover), the summed
duration of direct children, and span-specific counters.  Spans opened on a
worker thread with nothing open on that thread are children of the innermost
span open on the main thread; the benchmark runs one op at a time, so that
span is the one that started the workers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

import scipy.fft  # noqa: F401  -- makes scipy.fft's transforms wrappable

from layers import SPANS


class _Stat:
    __slots__ = ("calls", "total", "self_time", "child_time", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.child_time = 0.0
        self.counters: dict[str, float] = defaultdict(float)


class _Frame:
    __slots__ = ("start", "parent", "children")

    def __init__(self, start: float, parent: "_Frame | None") -> None:
        self.start = start
        self.parent = parent
        self.children: list[tuple[float, float]] = []


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def _kp5_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "kp5" or n.startswith("kp5.")]


class Tracer:
    """Wraps every span target; ``install``/``uninstall`` bracket one traced op."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.stats: dict[str, _Stat] = {span.name: _Stat() for span in SPANS}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._local.stack = []
        self._main_stack = self._local.stack
        self._omega_cache = importlib.import_module("kp5.dispersion")._omega_lattice
        self._omega_hits = 0
        self._omega_misses = 0
        self._omega_before = None
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = _kp5_modules()
        for span in SPANS:
            for module_name, attr in span.targets:
                self._plan(span, importlib.import_module(module_name), attr, modules)

    # -- binding plan --------------------------------------------------------

    def _plan(self, span, module, attr: str, modules: list) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span))
            else:
                wrapped = self._wrap(raw, span)
            self._bindings.append((owner, method, raw, wrapped))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(original, span)
        seen = set()
        for namespace in [module, *modules]:
            if id(namespace) in seen:
                continue
            seen.add(id(namespace))
            for name, value in list(vars(namespace).items()):
                if value is original:
                    self._bindings.append((namespace, name, original, wrapped))

    def install(self) -> None:
        info = self._omega_cache.cache_info()
        self._omega_before = (info.hits, info.misses)
        for owner, name, _original, wrapped in self._bindings:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _wrapped in self._bindings:
            setattr(owner, name, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original, _wrapped in self._bindings
            if vars(owner)[name] is not original
        ]
        if stale:
            raise RuntimeError(f"tracing left wrapped bindings behind: {stale}")
        info = self._omega_cache.cache_info()
        self._omega_hits += info.hits - self._omega_before[0]
        self._omega_misses += info.misses - self._omega_before[1]

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, span):
        stat = self.stats[span.name]
        count = span.count
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, stat)
            if count is not None:
                extra = count(args, kwargs, result)
                with tracer._lock:
                    for key, value in extra.items():
                        stat.counters[key] += value
            return result

        return traced

    def _open(self) -> _Frame:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        frame = _Frame(perf_counter(), parent)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame, stat: _Stat) -> None:
        end = perf_counter()
        self._local.stack.pop()
        duration = end - frame.start
        children = frame.children
        with self._lock:
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - _union_length(children)
            stat.child_time += sum(hi - lo for lo, hi in children)
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))

    # -- readings (totals over all traced ops) ---------------------------------

    def omega_hit_ratio(self) -> float:
        """Hits over lookups of the cached symbol lattice; 0 with no lookups."""
        lookups = self._omega_hits + self._omega_misses
        return self._omega_hits / lookups if lookups else 0.0

    def parallel_efficiency(self) -> float:
        """Summed duration of the suite's direct child spans (its samples)
        over suite wall time times workers; 0 when no suite ran."""
        suite = self.stats["sweeps.run_suite"]
        if suite.total == 0.0:
            return 0.0
        return suite.child_time / (suite.total * self.workers)

    def unexercised(self, workload: str) -> list[str]:
        """Spans meant to run on ``workload`` that recorded no call."""
        return [s.name for s in SPANS if workload in s.exercised_by and self.stats[s.name].calls == 0]
