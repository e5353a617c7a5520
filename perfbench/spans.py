"""In-memory spans and counters for the traced run, plus a timing cache.

A span records name, start, end, parent span and item id.  Spans are kept
in memory and written out once the run ends.  With tracing off, ``span``
returns a shared no-op object, so the untraced run pays one method call
per layer boundary and records nothing.
"""

from __future__ import annotations

import time
from collections import Counter

from permball.cache import ResultCache


class Span:
    __slots__ = ("tracer", "name", "item", "parent", "id", "start", "end", "attrs")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.attrs: dict = {}

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.item = tracer.item
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.id = len(tracer.spans)
        tracer.spans.append(self)
        tracer.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.item, self.attrs]


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Span and counter store; records only while ``enabled`` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.item: int | None = None
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str) -> Span | _NullSpan:
        return Span(self, name) if self.enabled else _NULL_SPAN

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount


class TimingCache(ResultCache):
    """ResultCache that records a span around every get and put."""

    def __init__(self, directory, tracer: Tracer):
        super().__init__(directory)
        self.tracer = tracer

    def get(self, spec):
        with self.tracer.span("cache.get"):
            record = super().get(spec)
        self.tracer.count("cache.gets")
        if record is not None:
            self.tracer.count("cache.hits")
        return record

    def put(self, spec, count, backend):
        with self.tracer.span("cache.put"):
            record = super().put(spec, count, backend)
        if self.tracer.enabled:
            self.tracer.count("cache.bytes_written", self.path_for(spec).stat().st_size)
        return record
