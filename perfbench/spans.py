"""In-memory spans around the benchmark's calls into the package.

A span records a name, start and end (perf_counter seconds), the id of
the span that was open when it started, and the id of the benchmark
instance it belongs to.  Spans are kept in a list and written out once,
at the end of a run.  The null tracer gives the untraced run the same
code path at the cost of one no-op context manager per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.instance = 0
        self._clock = clock
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, self._clock(), 0.0, parent, self.instance)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = self._clock()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    enabled = False
    instance = 0
    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL


NULL_TRACER = NullTracer()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Spans of one instance run in one thread, so children never overlap
    and their durations add up to the interval they cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}
