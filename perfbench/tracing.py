"""Call interfaces the workloads run their library calls through.

``Plain`` runs every call as is and runs composite operations whole.
``Tracer`` wraps each call in a named span, splits composite operations
into their public stages and records work counts at the same
boundaries.  Spans are aggregated in memory per name: call count, total
time and self time (total minus the time of spans opened inside it).
"""
from __future__ import annotations

from collections import Counter
from time import perf_counter


class Plain:
    split = False

    def call(self, span, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    split = True

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []

    def call(self, span, fn, *args):
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += elapsed
            self.calls[span] += 1
            self.self_s[span] += elapsed - child

    def count(self, name, n=1):
        self.counts[name] += n
