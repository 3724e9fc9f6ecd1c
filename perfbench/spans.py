"""Spans and counters recorded around the program's public functions.

A ``Tracer`` replaces module attributes with timing wrappers and puts the
originals back in ``restore``, so no file of the program changes.  A call
that goes through a wrapped module attribute becomes a span; a call the
benchmark makes itself is recorded with ``Tracer.span``.  Spans stay in
memory and are summarised with ``summarize`` when the traced pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root


Counter = Callable[[object], Dict[str, int]]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, counter: Optional[Counter] = None) -> None:
        """Record every call of ``module.attr`` as a span called ``name``;
        ``counter`` maps the call's result to counter increments."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def covered_time(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Total time, self time and call count per span name.

    Self time is a span's duration minus the part of it that its child spans
    cover.  A span nested inside another span of the same name adds to the
    call count and the self time but not again to the total time.
    """
    children: List[List[int]] = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(k)
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for k, span in enumerate(spans):
        duration = span.end - span.start
        covered = covered_time(
            span.start, span.end, ((spans[c].start, spans[c].end) for c in children[k])
        )
        self_time[span.name] = self_time.get(span.name, 0.0) + duration - covered
        calls[span.name] = calls.get(span.name, 0) + 1
        total.setdefault(span.name, 0.0)
        up = span.parent
        while up >= 0 and spans[up].name != span.name:
            up = spans[up].parent
        if up < 0:
            total[span.name] += duration
    return total, self_time, calls
