"""Span tracer for the benchmark's traced run.

`Tracer.installed()` wraps every public function of the crestwave modules
named in `MODULES`, and every public method of the classes they define,
from outside the package: the package itself is not changed.  Each call
records a span (name, parent span, start, end).  The benchmark opens a
phase span around each step, record, set-up and checkpoint, so every span
has a phase: the phase span at the root of its tree.

Spans live in anonymous memory maps, 24 bytes a span, not in memory from
malloc.  crestwave frees large numpy temporaries back to the system, about
a million page faults in one `pair_eps05` run; a growing malloc'd buffer
of spans raises glibc's mmap threshold, stops those faults and made the
traced runs about 15% faster than untraced ones.

A span's self time is its duration minus the durations of its direct
children.  A function's inclusive time is the sum of its span durations;
no crestwave function calls itself, so nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import mmap
import sys
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("spectral", "evolution", "brackets", "pair", "energies", "initial_data", "checkpoint")
PHASE_PREFIX = "phase."


class _SpanStore:
    """Span fields in anonymous memory maps that double when full."""

    FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))

    def __init__(self, capacity=1 << 20):
        self.n = 0
        self.capacity = 0
        self._maps = {}
        self._grow(capacity)

    def _grow(self, capacity):
        for field, code in self.FIELDS:
            size = capacity * (4 if code == "i" else 8)
            new = mmap.mmap(-1, size)
            view = memoryview(new).cast(code)
            if field in self._maps:
                old_map, old_view = self._maps[field]
                view[: self.n] = old_view[: self.n]
                old_view.release()
                old_map.close()
            self._maps[field] = (new, view)
            setattr(self, field, view)
        self.capacity = capacity

    def add(self):
        """Index of a new span."""
        if self.n == self.capacity:
            self._grow(2 * self.capacity)
        self.n += 1
        return self.n - 1

    def array(self, field, dtype):
        return np.frombuffer(self._maps[field][0], dtype=dtype, count=self.n)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._spans = _SpanStore()
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        spans = self._spans
        idx = spans.add()
        spans.name[idx] = nid
        spans.parent[idx] = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        spans.start[idx] = time.perf_counter()

    def _close(self):
        self._spans.end[self._stack.pop()] = time.perf_counter()

    def open_phase(self, phase):
        self._open(self._name_id(PHASE_PREFIX + phase))

    def close_phase(self):
        self._close()

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = spans.add()
            spans.name[idx] = nid
            spans.parent[idx] = stack[-1] if stack else -1
            stack.append(idx)
            spans.start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap the package's public callables for the duration of the block."""
        patches = []

        def patch(owner, attr, value):
            patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"crestwave.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if meth.startswith("_") and meth != "__call__":
                            continue
                        name = f"{short}.{obj.__name__}.{meth}"
                        if inspect.isfunction(member):
                            patch(obj, meth, self._wrap(member, name))
                        elif isinstance(member, classmethod):
                            patch(obj, meth, classmethod(self._wrap(member.__func__, name)))
        # modules import functions from each other by name, so every binding
        # of a wrapped function in any crestwave module is replaced
        for modname, mod in list(sys.modules.items()):
            if modname != "crestwave" and not modname.startswith("crestwave."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patch(mod, attr, wrapped[obj])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def span_count(self):
        return self._spans.n

    def summary(self):
        """Per (function, phase): calls, inclusive seconds and self seconds,
        plus the number of phase spans of each kind."""
        if self._stack:
            raise RuntimeError("summary() called with open spans")
        spans = self._spans
        name = spans.array("name", np.intc).astype(np.int64)
        parent = spans.array("parent", np.intc).astype(np.int64)
        dur = spans.array("end", np.float64) - spans.array("start", np.float64)
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        # pointer jumping to the root of each span's tree
        root = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        phase = name[root]

        n_names = len(self.names)
        key = name * n_names + phase
        size = n_names * n_names
        calls = np.bincount(key, minlength=size)
        incl = np.bincount(key, weights=dur, minlength=size)
        selft = np.bincount(key, weights=self_time, minlength=size)
        table = {}
        for k in np.nonzero(calls)[0]:
            fn, ph = self.names[k // n_names], self.names[k % n_names]
            table[(fn, ph.removeprefix(PHASE_PREFIX))] = (int(calls[k]), float(incl[k]), float(selft[k]))
        return table
