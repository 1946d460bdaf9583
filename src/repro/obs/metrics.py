"""Process-local metric primitives for :mod:`repro.obs`.

Counters live in a process-global :data:`REGISTRY`.  They are plain
Python objects with no locking: every
user in this codebase mutates them from a single thread per process
(worker processes each get their own registry after ``fork``/``spawn``),
and readers only ever see snapshots.  Updating a counter is one integer
add — cheap enough to leave permanently wired into hot paths behind a
``None`` check.
"""

from __future__ import annotations

__all__ = ["Counter", "Registry", "REGISTRY"]


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Registry:
    """Name → counter map with lazy creation and JSON-able snapshots."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def snapshot(self) -> dict:
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
        }

    def reset(self) -> None:
        self._counters.clear()


#: Process-global registry used by all in-tree instrumentation.
REGISTRY = Registry()
