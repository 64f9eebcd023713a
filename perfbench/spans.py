"""In-memory span recorder for the traced benchmark runs.

A span records (name, start, end, parent, op id).  Spans live in a list
until the run ends; `Tracer.summary` turns a slice of them into per-name
self time (duration minus the time covered by child spans) and call
counts.  `NullTracer` is what the untraced runs use: entering one of its
spans does nothing.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.op_id])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


class Tracer:
    """Span and counter recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, int | None]] = []
        self._open: list[int] = []
        self.op_id: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int) -> None:
        self.counts.append((name, n, self.op_id))

    def mark(self) -> tuple[int, int]:
        """Position to pass to `summary` to summarise only what follows."""
        return len(self.spans), len(self.counts)

    def summary(self, since: tuple[int, int] = (0, 0)) -> tuple[dict, dict]:
        """(self ms by name, counts by name) for what was recorded after `since`."""
        first, first_count = since
        child_s: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None and parent >= first:
                child_s[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        for idx in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[idx]
            self_ms[name] += (end - start - child_s[idx]) * 1e3
        counts: Counter = Counter()
        for name, n, _ in self.counts[first_count:]:
            counts[name] += n
        return dict(self_ms), dict(counts)

    def write(self, path) -> None:
        """Write every span and counter as JSON, start times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [{"name": n, "start_ms": (s - t0) * 1e3, "end_ms": (e - t0) * 1e3,
                       "parent": p, "op": op} for n, s, e, p, op in self.spans],
            "counts": [{"name": n, "n": k, "op": op} for n, k, op in self.counts],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stand-in for `Tracer` in untraced runs: records nothing."""

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int) -> None:
        pass
