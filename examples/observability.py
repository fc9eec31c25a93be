"""Observability walkthrough: metrics, span traces, and engine introspection.

The engine layers are permanently instrumented (:mod:`repro.obs`), off by
default, and switchable per process or per engine.  This example

1. switches observability on process-wide (``obs.enable``) and runs a
   streaming monitor plus a batch check over the banking suite,
2. prints the Prometheus text exposition the registry renders -- the exact
   bytes a scrape endpoint would serve -- and the span tree the batch check
   recorded: its encode and kernel stages under ``engine.check_batch_all``,
3. gives a second engine its *own* registry (``obs=MetricsRegistry(...)``)
   to show per-tenant isolation: its numbers never mix with the default
   registry's, and
4. reads ``engine.stats()``, the always-on introspection dict (cache
   counters live there even with observability off).

Run with:  python examples/observability.py
"""

from repro import obs
from repro.engine import HistoryCheckerEngine
from repro.workloads import generators


def build_engine(suite, **kwargs) -> HistoryCheckerEngine:
    engine = HistoryCheckerEngine(**kwargs)
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    return engine


def main() -> None:
    histories, events, suite = generators.conforming_banking_stream(
        seed=11, objects=3_000, mean_length=8
    )

    # ------------------------------------------------------------------ #
    # 1. Process-wide switch: engines built after enable() are instrumented.
    # ------------------------------------------------------------------ #
    registry = obs.enable(obs.MetricsRegistry("example"))
    engine = build_engine(suite)

    stream = engine.open_stream()
    step = max(1, len(events) // 8)
    for start in range(0, len(events), step):
        stream.feed_events(events[start : start + step])
    failing = sum(
        1
        for verdicts in stream.all_verdicts().values()
        for ok in verdicts.values()
        if not ok
    )
    print(f"streamed {stream.events_seen} events; {failing} failing (object, spec) pairs")

    engine.check_batch_all(histories[:2_000])

    # ------------------------------------------------------------------ #
    # 2. The exposition surfaces: Prometheus text and recorded span trees.
    # ------------------------------------------------------------------ #
    print("\n-- render_text() (first 12 lines) " + "-" * 30)
    for line in registry.render_text().splitlines()[:12]:
        print(line)

    print("\n-- span trees " + "-" * 51)
    for span in obs.recent_spans():
        print(span.render())

    # ------------------------------------------------------------------ #
    # 3. Per-engine registries isolate tenants.
    # ------------------------------------------------------------------ #
    tenant_registry = obs.MetricsRegistry("tenant-a")
    tenant_engine = build_engine(suite, obs=tenant_registry)
    tenant_engine.open_stream().feed_events(events[:100])
    print("\n-- isolation " + "-" * 52)
    print(f"tenant registry : {tenant_registry.to_dict()['repro_engine_events_total']} events")
    print(f"default registry: {registry.to_dict()['repro_engine_events_total']} events")

    # ------------------------------------------------------------------ #
    # 4. engine.stats() works with observability on or off.
    # ------------------------------------------------------------------ #
    obs.disable()
    plain = build_engine(suite)
    plain.check_batch_all(histories[:200])
    stats = plain.stats()
    print("\n-- engine.stats() on an uninstrumented engine " + "-" * 19)
    print(
        f"specs={stats['specs']} alphabet={stats['alphabet_size']} "
        f"kernel_cache={stats['kernel_cache']['hits']} hits / "
        f"{stats['kernel_cache']['misses']} misses; observability={stats['observability']}"
    )


if __name__ == "__main__":
    main()
