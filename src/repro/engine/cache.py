"""The bounded LRU cache that holds the engine's fused kernels.

A kernel (:class:`repro.engine.vector.VectorKernel`) fuses a selection of
compiled specs into product automata over the shared alphabet's current
size, so the engine keys its kernels by the spec names, their generations
and that size (:meth:`repro.engine.engine.HistoryCheckerEngine._kernel_for`).
The alphabet only grows, and every growth keys a fresh kernel, so the
cache is bounded: the least recently used kernel is evicted.  A stream
holds its own kernel, so an eviction never touches a live session.

The cache is **thread-safe**: every structural operation and every stat
update happens under one lock, so concurrent streams sharing an engine
cannot corrupt the LRU order or lose counter increments.

When observability is on (:mod:`repro.obs`), the engine binds counters via
:meth:`SpecCache.bind_metrics`; the cache then mirrors every hit, miss and
eviction into them, making cache behaviour visible in
``registry.render_text()`` without a polling loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional


class SpecCache:
    """A bounded, thread-safe LRU mapping ``key -> artifact`` with counters."""

    __slots__ = ("_maxsize", "_entries", "_lock", "_metrics", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("the cache needs room for at least one entry")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: ``(hits, misses, evictions)`` observability counters, or ``None``.
        self._metrics = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        """The capacity of the cache."""
        return self._maxsize

    def bind_metrics(self, hits, misses, evictions) -> None:
        """Mirror the counters into observability instruments from now on.

        The arguments are :class:`repro.obs.metrics.Counter`-shaped (any
        object with ``inc(n)``); past counts are carried over so binding
        late never under-reports.
        """
        with self._lock:
            self._metrics = (hits, misses, evictions)
            if self.hits:
                hits.inc(self.hits)
            if self.misses:
                misses.inc(self.misses)
            if self.evictions:
                evictions.inc(self.evictions)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached artifact for ``key`` (refreshing its recency), if present."""
        with self._lock:
            spec = self._entries.get(key)
            if spec is None:
                self.misses += 1
                metrics = self._metrics
                if metrics is not None:
                    metrics[1].inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            metrics = self._metrics
            if metrics is not None:
                metrics[0].inc()
            return spec

    def put(self, key: Hashable, spec: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            self._entries[key] = spec
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                evicted += 1
            if evicted:
                self.evictions += evicted
                metrics = self._metrics
                if metrics is not None:
                    metrics[2].inc(evicted)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current size, read atomically."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
            }


__all__ = ["SpecCache"]
