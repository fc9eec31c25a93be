"""Benchmark-side span tracing for the traced run.

Spans are opened around *public* calls into the monitor (the library itself
carries no stage timers yet), kept in memory while the workload runs and
written out as JSON lines when it ends.  Each span records its name, start,
end and parent; a span's *self time* is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional


class Span:
    """One timed interval; ``parent`` is the enclosing span's id (or ``None``)."""

    __slots__ = ("span_id", "name", "parent", "start", "end", "_stack")

    def __init__(self, stack: List[int], span_id: int, name: str, parent: Optional[int]) -> None:
        self._stack = stack
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        self._stack.append(self.span_id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = perf_counter()
        self._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder with one parent stack (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._stack, len(self.spans), name, parent)
        self.spans.append(span)
        return span

    def totals(self, start: int = 0, stop: Optional[int] = None) -> Dict[str, float]:
        """Summed duration per span name over ``spans[start:stop]`` (take
        ``start = len(tracer.spans)`` before a phase to total just that phase)."""
        out: Dict[str, float] = {}
        for span in self.spans[start:stop]:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def self_totals(self, start: int = 0) -> Dict[str, float]:
        """Summed self time (duration minus direct children) per span name."""
        spans = self.spans[start:]
        children: Dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.duration
        out: Dict[str, float] = {}
        for span in spans:
            own = span.duration - children.get(span.span_id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.span_id,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                }
                handle.write(json.dumps(record) + "\n")
