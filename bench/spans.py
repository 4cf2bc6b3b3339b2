"""A small in-memory span recorder.

Spans carry a name, a start, an end, the index of their parent span and
the counters recorded while they were the innermost open span. Nothing is
written while the run goes on: the caller reads ``spans`` when it is done.
The recorder knows nothing about the program it measures;
:meth:`Recorder.wrap` puts a span around any callable attribute of a module
or class.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the innermost open span (dropped if none)."""
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[name] = counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        ``name`` is a string, a function of the call's arguments giving the
        span name, or ``None`` to record no span and only count into the
        enclosing one. ``counts``, if given, maps ``(args, result)`` to a
        dict of counter increments. Static methods stay static.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        name_of = name if callable(name) else (lambda *args, **kwargs: name)

        def record(args, result):
            if counts is not None:
                for key, amount in counts(args, result).items():
                    self.count(key, amount)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
                record(args, result)
                return result
            with self.span(name_of(*args, **kwargs)):
                result = func(*args, **kwargs)
                record(args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    # -- reading the record ---------------------------------------------------

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out[s.parent].append(i)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        kids = self.children()
        return [
            s.duration - sum(self.spans[c].duration for c in kids[i])
            for i, s in enumerate(self.spans)
        ]
