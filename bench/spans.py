"""In-memory spans and call-site patching for the signal-test benchmark.

Nothing here is pqclone-specific: a ``Tracer`` wraps callables so every
call records a span (name, start, end, parent, tag), ``patched`` swaps
module attributes for the duration of a ``with`` block, and ``StageTimer``
is the cheap once-per-call timer used while end-to-end metrics are taken.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, NamedTuple

_clock = time.perf_counter


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    tag: object  # what the layer's tag function derived from (args, result)


class Tracer:
    """Records one span per wrapped call; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(
        self, name: str, fn: Callable, tag: Callable | None = None
    ) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, start, _clock(), parent, None)
                stack.pop()
                raise
            end = _clock()
            stack.pop()
            spans[index] = Span(
                name, start, end, parent, tag(args, result) if tag else None
            )
            return result

        return traced

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start an empty record."""
        if self._stack:
            raise RuntimeError("take() called while a traced call is open")
        spans = self.spans[:]
        self.spans.clear()  # in place: the wrappers append to this list
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


class StageTimer:
    """Remembers (start, end) of the latest call of each wrapped callable."""

    def __init__(self):
        self.marks: dict[str, tuple[float, float]] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        marks = self.marks

        def timed(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                marks[name] = (start, _clock())

        return timed


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable]]):
    """Set ``module.attr = value`` for each entry; restore all on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
