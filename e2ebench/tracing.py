"""In-memory spans recorded around the replay's calls into each layer.

A span has a name, a start and an end (``perf_counter`` seconds), the
index of the span that caused it and a run id. Spans stay in memory and
are written out once, when the run ends. ``NullTracer`` has the same
interface and records nothing, so one replay serves the traced and the
untraced run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; nesting is tracked per thread."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id,
                      threading.current_thread().name)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a ``name`` span."""
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


class NullTracer:
    """The untraced run's tracer: same calls, nothing recorded."""

    enabled = False
    spans: Tuple[Span, ...] = ()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def wrap(self, name: str, function):
        return function


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _union_length(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def coverage(spans: Sequence[Span], wall: float, thread: str) -> float:
    """Share of ``wall`` that the root spans of ``thread`` cover."""
    roots = [(s.start, s.end) for s in spans
             if s.parent is None and s.thread == thread]
    return _union_length(roots) / wall if wall > 0 else 0.0
