"""In-memory spans around the calls into each layer, for the traced run.

The benchmark does not edit the program to trace it: :class:`SpanRecorder`
replaces a layer's public entry point (a method on a class, or a function
where a module looks it up) with a wrapper that records one span per call
and then calls the original.  :meth:`SpanRecorder.restore` puts every
original back.

A span is ``(span_id, parent_id, name, start, end)``; the parent is the span
open on the (single-threaded) call stack when the call began.  Spans of one
episode are kept in memory, folded into per-layer totals when the episode
ends, and the spans of the first traced episode are kept whole so the run can
write them out at the end.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

import stats


class SpanRecorder:
    """Records spans for the episode in progress and folds finished ones."""

    def __init__(self) -> None:
        self._open: list[int] = [0]
        self._next_id = 1
        self._spans: list[tuple[int, int, str, float, float]] = []
        self._patched: list[tuple[object, str, object | None]] = []
        #: ``name -> [count, total seconds, self seconds]`` over every
        #: finished episode.
        self.totals: dict[str, list[float]] = {}
        #: The first finished episode's spans, tagged with its episode id.
        self.kept: list[tuple[int, int, int, str, float, float]] = []
        self.episodes = 0

    def call(self, name: str, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call *function* inside a span named *name*."""
        open_spans = self._open
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = open_spans[-1]
        open_spans.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            open_spans.pop()
            self._spans.append((span_id, parent, name, start, end))

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Record a span named *name* around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        own = attribute in vars(owner)
        call = self.call

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(name, original, *args, **kwargs)

        self._patched.append((owner, attribute, original if own else None))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def end_episode(self) -> None:
        """Fold the finished episode's spans into :attr:`totals`."""
        if len(self._open) != 1:
            raise RuntimeError("episode ended with spans still open")
        if not self.kept:
            self.kept = [(self.episodes, *span) for span in self._spans]
        for name, (count, total, own) in stats.self_times(self._spans).items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += own
        self._spans = []
        self.episodes += 1

    def count(self, *names: str) -> int:
        """Spans recorded under any of *names*."""
        return int(sum(self.totals.get(name, (0, 0.0, 0.0))[0] for name in names))

    def total_s(self, *names: str) -> float:
        """Summed duration of the spans under *names*."""
        return sum(self.totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def self_s(self, *names: str) -> float:
        """Summed self time of the spans under *names*."""
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)
