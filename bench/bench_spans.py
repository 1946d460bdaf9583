"""In-memory spans recorded around calls into each layer.

A span is ``(name, start, end, parent, cell)``; spans are kept in a list
and only summarised after the traced run ends.  A layer's *self time* is
its spans' duration minus the part their direct children cover, so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Span", "Recorder", "span_self_times", "self_times", "durations"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell")

    def __init__(self, name, start, parent, cell):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cell = cell


class Recorder:
    """Records nested spans; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, cell: str = ""):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, self.clock(), parent, cell or self._cell())
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def _cell(self) -> str:
        return self.spans[self._stack[-1]].cell if self._stack else ""

    def wrap(self, fn, name: str):
        """``fn`` with a span of ``name`` around every call."""

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped


def durations(spans, name: str) -> list:
    """Durations of every span called ``name``, in recording order."""
    return [s.end - s.start for s in spans if s.name == name]


def span_self_times(spans) -> list:
    """Per-span self time (duration minus direct children), span order."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [s.end - s.start - covered for s, covered in zip(spans, child_time)]


def self_times(spans) -> dict:
    """name -> summed self time of the spans with that name."""
    out: dict = {}
    for s, own in zip(spans, span_self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + own
    return out
