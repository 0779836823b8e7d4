"""In-memory span tracer for the benchmark's traced runs.

A span is opened around one call into a layer and closed when the call
returns. Each thread keeps its own stack, so a span's parent is the span
that was open on the same thread when it started. Self time is a span's
duration minus the durations of its direct children.

Every span is folded into per-name aggregates (count, total, self). Spans
of the coarse boundaries (called a few hundred times per run at most) are
also kept individually as (name, parent, start, end). The per-record
boundaries run hundreds of thousands of times, so only their aggregates
are kept. Nothing is written until dump() at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one process; keep names the coarse spans."""

    def __init__(self, clock=time.perf_counter_ns, keep=()):
        self.clock = clock
        self.keep = frozenset(keep)
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[dict] = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "agg": defaultdict(lambda: [0, 0, 0]),
                  "counts": defaultdict(int)}
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def begin(self, name: str):
        st = self._state()
        parent = st["stack"][-1][0] if st["stack"] else None
        st["stack"].append([name, self.clock(), 0, parent])

    def end(self):
        now = self.clock()
        st = self._state()
        span_name, start, child_ns, parent = st["stack"].pop()
        duration = now - start
        agg = st["agg"][span_name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        if st["stack"]:
            st["stack"][-1][2] += duration
        if span_name in self.keep:
            with self._lock:
                self.spans.append((span_name, parent, start, now))

    def count(self, name: str, n: int = 1):
        self._state()["counts"][name] += n

    def wrap(self, fn, name: str):
        """Return fn with every call recorded as one span."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, fn, name: str):
        """Return generator function fn with each next() recorded as a span.

        The span count includes the final next() that ends the generator;
        the number of items yielded is counted under "<name>.items".
        """
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.count(name + ".items")
                yield item
        traced.__wrapped__ = fn
        return traced

    def aggregates(self) -> dict:
        """Merged {name: (count, total_ns, self_ns)} over every thread."""
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, (n, total, own) in st["agg"].items():
                acc = out[name]
                acc[0] += n
                acc[1] += total
                acc[2] += own
        return {k: tuple(v) for k, v in out.items()}

    def counters(self) -> dict:
        """Merged {name: count} over every thread."""
        out: dict[str, int] = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, n in st["counts"].items():
                out[name] += n
        return dict(out)

    def dump(self, path: str):
        agg = self.aggregates()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "aggregates": {k: {"count": n, "total_ns": t, "self_ns": s}
                               for k, (n, t, s) in sorted(agg.items())},
                "counters": dict(sorted(self.counters().items())),
                "spans": [{"name": n, "parent": p, "start_ns": a, "end_ns": b}
                          for n, p, a, b in self.spans],
            }, fh, indent=1)
