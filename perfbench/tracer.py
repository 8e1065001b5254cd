"""Spans around the benchmark's calls into paleyvec.

Every call the benchmark makes into a layer goes through ``call``.  The
untraced runs use ``NullTracer``, whose ``call`` only forwards, so the
end-to-end numbers carry no tracing cost.  A ``Tracer`` records one span
per call (name, parent, start, end) and the instance key of the root span
it belongs to, keeps them in memory, and sums counters at the same
boundaries.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, key=None):
        return nullcontext()

    def count(self, name, value=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # one row per span: [name, parent index or -1, start, end, root key]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name, key):
        if self._stack:
            parent = self._stack[-1]
            key = self.spans[parent][4]
        else:
            parent = -1
        self.spans.append([name, parent, time.perf_counter(), None, key])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    @contextmanager
    def span(self, name, key=None):
        self._open(name, key)
        try:
            yield
        finally:
            self._close()

    def count(self, name, value=1):
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def durations(self, name) -> list[float]:
        return [end - start for n, _, start, end, _ in self.spans if n == name]
