"""The engine's instrument catalog, pre-resolved for the hot path.

:class:`EngineInstruments` looks every instrument up **once** at engine
construction and stores them on slots, so an instrumented code path costs
one ``is not None`` check plus a bound-method call -- never a registry
lookup, never a label-dict allocation.  The catalog (names, kinds, labels)
is documented in ARCHITECTURE.md's observability section; the name prefix
is ``repro_``.

Engines may share the process default registry (the common case) or carry
a private :class:`repro.obs.metrics.MetricsRegistry` each, which keeps
future multi-tenant services' numbers isolated per tenant.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry


class EngineInstruments:
    """Every instrument the engine layers touch, resolved once."""

    __slots__ = (
        "registry",
        # engine.py
        "events_total",
        "batches_total",
        "check_batches_total",
        "screen_batches_total",
        "verdicts_pass",
        "verdicts_fail",
        "violations_total",
        "enforce_rejections",
        "streams_opened",
        # snapshot.py
        "snapshot_dump_bytes",
        "snapshot_restore_bytes",
        "snapshot_state_translations",
        # journal.py
        "journal_append_records",
        "journal_append_bytes",
        "journal_replay_records",
        "journal_replay_bytes",
        "journal_checkpoints",
        "journal_truncated_records",
        "stream_recoveries",
        # vector.py
        "kernel",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        counter = registry.counter
        self.events_total = counter(
            "repro_engine_events_total", "Events fed through streaming sessions"
        )
        self.batches_total = counter(
            "repro_engine_batches_total", "Event batches fed through streaming sessions"
        )
        self.check_batches_total = counter(
            "repro_engine_check_batches_total", "check_batch/check_batch_all invocations"
        )
        self.screen_batches_total = counter(
            "repro_engine_screen_batches_total", "screen_histories invocations"
        )
        self.verdicts_pass = counter(
            "repro_engine_verdicts_total", "Batch verdicts produced", verdict="pass"
        )
        self.verdicts_fail = counter(
            "repro_engine_verdicts_total", "Batch verdicts produced", verdict="fail"
        )
        self.violations_total = counter(
            "repro_engine_violations_total", "Violation reports produced by explain()"
        )
        self.enforce_rejections = counter(
            "repro_engine_enforce_rejections_total",
            "Events refused by the feed_events(enforce=True) admissibility gate",
        )
        self.streams_opened = counter(
            "repro_engine_streams_opened_total", "Streaming sessions opened or restored"
        )
        self.snapshot_dump_bytes = counter(
            "repro_engine_snapshot_bytes_total", "Snapshot blob bytes", direction="dump"
        )
        self.snapshot_restore_bytes = counter(
            "repro_engine_snapshot_bytes_total", "Snapshot blob bytes", direction="restore"
        )
        self.snapshot_state_translations = counter(
            "repro_engine_snapshot_state_translations_total",
            "Occupied product states re-materialized during snapshot restore",
        )
        self.journal_append_records = counter(
            "repro_journal_records_total", "Journal records processed", direction="append"
        )
        self.journal_replay_records = counter(
            "repro_journal_records_total", "Journal records processed", direction="replay"
        )
        self.journal_append_bytes = counter(
            "repro_journal_bytes_total", "Journal record bytes processed", direction="append"
        )
        self.journal_replay_bytes = counter(
            "repro_journal_bytes_total", "Journal record bytes processed", direction="replay"
        )
        self.journal_checkpoints = counter(
            "repro_journal_checkpoints_total", "Checkpoints written by durable streams"
        )
        self.journal_truncated_records = counter(
            "repro_journal_truncated_records_total",
            "Corrupt or torn journal tail records discarded during recovery",
        )
        self.stream_recoveries = counter(
            "repro_stream_recoveries_total",
            "Durable streaming sessions rebuilt by recover_stream",
        )
        #: The kernel-layer counters every kernel of the engine shares.
        self.kernel = KernelInstruments(registry)

    def cache_counters(self, cache: str):
        """``(hits, misses, evictions)`` counters for one named LRU cache."""
        counter = self.registry.counter
        return (
            counter("repro_engine_cache_hits_total", "Compiled-artifact cache hits", cache=cache),
            counter(
                "repro_engine_cache_misses_total", "Compiled-artifact cache misses", cache=cache
            ),
            counter(
                "repro_engine_cache_evictions_total",
                "Compiled-artifact cache evictions",
                cache=cache,
            ),
        )


class KernelInstruments:
    """The kernel counters (the vector.py hot layer)."""

    __slots__ = (
        "batches_total",
        "events_total",
        "histories_total",
        "sink_skips",
        "gather_rounds",
        "scalar_fallback_events",
        "plan_cache_hits",
        "plan_cache_misses",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        counter = registry.counter
        self.batches_total = counter(
            "repro_kernel_batches_total", "Encoded batches advanced by the kernel"
        )
        self.events_total = counter("repro_kernel_events_total", "Events advanced by the kernel")
        self.histories_total = counter(
            "repro_kernel_histories_total", "Whole histories checked by the kernel"
        )
        self.sink_skips = counter(
            "repro_kernel_sink_skipped_passes_total",
            "Group passes skipped because the whole population sat on the doomed sink",
        )
        self.gather_rounds = counter(
            "repro_kernel_gather_rounds_total", "Vectorized peel/gather rounds executed"
        )
        self.scalar_fallback_events = counter(
            "repro_kernel_scalar_fallback_events_total",
            "Events advanced through the skew scalar fallback",
        )
        self.plan_cache_hits = counter(
            "repro_kernel_plan_cache_hits_total", "Batches advanced from a cached peel plan"
        )
        self.plan_cache_misses = counter(
            "repro_kernel_plan_cache_misses_total", "Batches whose peel plan was computed fresh"
        )


def resolve(setting, enabled: bool, default: MetricsRegistry) -> Optional[EngineInstruments]:
    """The engine's ``obs=`` parameter resolved to instruments (or ``None``).

    ``None`` follows the process switch (:func:`repro.obs.enabled`);
    ``True``/``False`` force it; a :class:`MetricsRegistry` instruments the
    engine against that private registry unconditionally.
    """
    if setting is None:
        return EngineInstruments(default) if enabled else None
    if setting is True:
        return EngineInstruments(default)
    if setting is False:
        return None
    if isinstance(setting, MetricsRegistry):
        return EngineInstruments(setting)
    if isinstance(setting, EngineInstruments):
        return setting
    raise TypeError(
        f"obs must be None, a bool, or a MetricsRegistry, not {type(setting).__name__}"
    )


__all__ = ["EngineInstruments", "KernelInstruments", "resolve"]
