"""Outside-in tracer for the seqtag benchmark.

Wraps the public functions of chosen seqtag modules and records one span
per call: layer name, start, end, the index of the calling span and the
index of the top-level span (the request) it belongs to.  Functions that
other modules import by name are patched at every binding, so a call made
through ``seqtag.tagger.forward`` or ``seqtag.evaluation.predict`` is
recorded like a call made through its defining module.  Every patch is
undone when the traced block ends, also when it raises.

Counters are computed at the same boundaries: a counter hook receives the
running totals, the call's positional arguments and its result, and adds
numbers derived from array sizes (never from timing).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Span fields, stored as lists to keep per-call overhead low.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records spans and counters for the wrapped functions of a package."""

    def __init__(self, counters=None, clock=time.perf_counter):
        self.clock = clock
        self.counters = dict(counters or {})
        self.totals: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.wall_s = 0.0
        self.paused_s = 0.0
        self._stack: list[int] = []
        self._paused = False

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        counter = self.counters.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, spans[parent][REQUEST] if stack else index]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                counter(self.totals, args, result)
            return result

        return traced

    @contextmanager
    def tracing(self, package: str, modules):
        """Trace the public functions of ``modules`` within the block.

        ``modules`` are imported modules of ``package``.  A public function
        is a module-level function without a leading underscore whose
        ``__module__`` is the module that defines it; its layer name is the
        module's name relative to the package, a dot, and the function name.
        """
        originals = {}
        for module in modules:
            short = module.__name__[len(package) + 1 :]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        patches = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (
                    mod_name == package or mod_name.startswith(package + ".")
                ):
                    continue
                for attr, obj in list(vars(module).items()):
                    entry = originals.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        setattr(module, attr, entry[1])
                        patches.append((module, attr, obj))
            started = self.clock()
            try:
                yield self
            finally:
                self.wall_s += self.clock() - started
        finally:
            for module, attr, obj in reversed(patches):
                setattr(module, attr, obj)

    @contextmanager
    def paused(self):
        """Run the block untraced and leave its time out of the traced wall time."""
        started = self.clock()
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self.paused_s += self.clock() - started

    def layers(self) -> dict[str, dict]:
        """Per-layer calls, self seconds and total seconds of the recorded spans."""
        return self_times(self.spans)

    def coverage(self) -> float:
        """Sum of self times over the traced wall time (paused time excluded)."""
        traced = self.wall_s - self.paused_s
        busy = sum(layer["self_s"] for layer in self.layers().values())
        return busy / traced if traced > 0 else 0.0


def self_times(spans) -> dict[str, dict]:
    """Aggregate spans per name: a span's self time is its duration minus
    the durations of the spans it called directly."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    layers: dict[str, dict] = {}
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        layer = layers.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        layer["calls"] += 1
        layer["self_s"] += duration - child_s[i]
        layer["total_s"] += duration
    return layers
