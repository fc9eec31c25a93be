"""Lightweight span tracing: where does a batch's time go?

A *span* is a named, monotonic-clock timed region with child spans -- the
tree a ``check_batch_all`` call leaves behind reads::

    engine.check_batch_all            21.4ms
      encode.histories                 9.1ms
      kernel.check                    12.0ms

Spans are created by the :func:`trace` context manager.  When tracing is
disabled (the default) ``trace`` returns one shared no-op context manager:
the hot path pays a single module-attribute check and no allocation, which
is what lets the engine leave its ``trace`` calls permanently in place.

Each thread keeps its own current-span stack (``threading.local``), so
concurrent streams build disjoint trees.  Finished *root* spans land in a
bounded ring (:func:`recent_spans`), newest last -- the introspection
surface the CLI and ``engine.stats`` read.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import Dict, List, Optional

#: Finished root spans kept for introspection.
RECENT_SPAN_LIMIT = 32


class Span:
    """One timed region: name, duration, children, optional metadata."""

    __slots__ = ("name", "start", "duration", "children", "meta")

    def __init__(self, name: str, meta: Optional[Dict] = None) -> None:
        self.name = name
        self.start = perf_counter()
        self.duration: float = 0.0
        self.children: List["Span"] = []
        self.meta = meta

    def render(self, indent: int = 0) -> str:
        """The span tree as an indented text report (durations in ms)."""
        meta = ""
        if self.meta:
            meta = " " + " ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
        lines = [
            f"{'  ' * indent}{self.name:<{max(1, 40 - 2 * indent)}}"
            f"{self.duration * 1000:9.2f}ms{meta}"
        ]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1000:.2f}ms, {len(self.children)} children)"


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    name = ""
    duration = 0.0
    children: List = []
    meta = None

    def render(self, indent: int = 0) -> str:
        return ""


class _NoopTrace:
    """The shared disabled-path context manager: no state, no allocation."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


NOOP_SPAN = _NoopSpan()
_NOOP_TRACE = _NoopTrace()


class _TraceContext:
    """The live-path context manager: open a span under the current one."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, meta: Optional[Dict]) -> None:
        self._tracer = tracer
        self._span = Span(name, meta)

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer._pop(self._span)
        return None


class Tracer:
    """Per-thread span stacks plus the bounded finished-root ring."""

    __slots__ = ("enabled", "_local", "_lock", "_finished")

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: deque = deque(maxlen=RECENT_SPAN_LIMIT)

    # ------------------------------------------------------------------ #
    # Stack mechanics
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack: List[Span] = []
            self._local.stack = stack
            return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.duration = perf_counter() - span.start
        stack = self._stack()
        # Tolerate interleaved exits (generators suspended across spans):
        # remove the span wherever it sits instead of corrupting the stack.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self._finished.append(span)

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    def trace(self, name: str, **meta):
        """A context manager timing ``name`` (no-op while disabled)."""
        if not self.enabled:
            return _NOOP_TRACE
        return _TraceContext(self, name, meta or None)

    def current(self) -> Optional[Span]:
        """The innermost open span of this thread, if tracing is live."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    def recent(self) -> List[Span]:
        """Finished root spans, oldest first (bounded ring)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop the finished-root ring (open stacks are untouched)."""
        with self._lock:
            self._finished.clear()


#: The process tracer; :mod:`repro.obs` re-exports its bound methods.
TRACER = Tracer()

__all__ = [
    "NOOP_SPAN",
    "RECENT_SPAN_LIMIT",
    "Span",
    "Tracer",
    "TRACER",
]
