"""In-memory span recorder that wraps a program's entry points from outside.

A span has a name, a start and an end (`time.perf_counter` seconds), the
index of the span open when it started (its parent; spans are indexed
in the order they start) and the id of the run it belongs to, plus
free-form counters. Spans stay in memory until
the caller writes them out with `records()`.

Entry points are traced by swapping a wrapper into the attribute that
names them, and into every alias module that bound the same object with
`from module import name`; the originals come back when `installed`
exits. An entry point that does not exist is recorded in `absent` with
the reason, so the run that asked for it carries on without its metric.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    index: int
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Entry:
    """An entry point to trace: `owner.attr`, recorded under `name`.

    `counters(args, kwargs, result)` returns counters for the span;
    `aliases` are further modules whose `attr` is the same object.
    """

    owner: object
    attr: str
    name: str
    counters: Callable | None = None
    aliases: tuple = ()


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] that the union of `intervals` covers."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counters):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.run_id, index, counters)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, counters: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if counters is not None:
                    span.counters.update(counters(args, kwargs, result))
                return result
        return traced

    @contextmanager
    def installed(self, entries):
        """Trace `entries` for the duration of the block."""
        patches = []
        try:
            for entry in entries:
                original = getattr(entry.owner, entry.attr, None)
                if not callable(original):
                    owner = getattr(entry.owner, "__name__", repr(entry.owner))
                    self.absent[entry.name] = f"entry point {owner}.{entry.attr} not found"
                    continue
                traced = self.wrap(entry.name, original, entry.counters)
                for owner in (entry.owner, *entry.aliases):
                    if getattr(owner, entry.attr, None) is original:
                        patches.append((owner, entry.attr, original))
                        setattr(owner, entry.attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it that its child spans cover."""
        children = [(c.start, c.end) for c in self.spans if c.parent == span.index]
        return span.duration - covered(span.start, span.end, children)

    def find(self, name: str, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.run_id == run_id]

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "run_id": s.run_id, **s.counters} for s in self.spans]
