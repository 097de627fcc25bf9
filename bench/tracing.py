"""Spans around the calls into each layer, recorded from outside the package.

A Tracer replaces a function at the module attribute through which the
program calls it with a wrapper that records a span (name, start, end,
parent) and optional counts taken from the arguments and the result. The
spans stay in memory; layer_totals folds them into per-layer busy and self
times, where a span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str | Callable, fn: Callable, counts: Callable | None = None) -> Callable:
        """fn wrapped so that each call records one span.

        name may be a function of the call's (args, kwargs). counts, if
        given, maps (args, kwargs, result) to the counts the span carries;
        keep it cheap, since it runs inside the caller's span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            label = name if isinstance(name, str) else name(args, kwargs)
            record = Span(label, 0.0, parent=parent)
            self.spans.append(record)
            self._stack.append(index)
            record.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                record.counts = counts(args, kwargs, result)
            return result

        return wrapper

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set owner.attr until restore() puts the original back."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, name, counts: Callable | None = None) -> None:
        self.replace(owner, attr, self.span(name, getattr(owner, attr), counts))

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, such as in a child process."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name: '<name>_s' busy time, '<name>.self_s' self time and
    the sum of every count the spans carry."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, float] = {}
    for s, inner in zip(spans, child_time):
        duration = s.end - s.start
        totals[s.name + "_s"] = totals.get(s.name + "_s", 0.0) + duration
        key = s.name + ".self_s"
        totals[key] = totals.get(key, 0.0) + duration - inner
        for count, value in s.counts.items():
            totals[count] = totals.get(count, 0) + value
    return totals
