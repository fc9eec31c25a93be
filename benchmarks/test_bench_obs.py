"""E26: observability overhead -- permanent instrumentation must be ~free.

The observability layer (:mod:`repro.obs`) leaves its instrumentation
permanently in the engine hot paths, so the cost model has two claims to
pin on the E25 workload (~10^6 conforming events x 6 specs, a warm replay
of one encoded batch):

* **disabled is within noise** -- an uninstrumented engine resolves its
  instruments to ``None`` once at construction and every hot path pays a
  single attribute check.  This is enforced by the CI gate itself: E25
  (``test_e25_warm_replay_streaming``) still runs on the same
  uninstrumented configuration as before this layer existed, so a slowed
  disabled path regresses E25 against the committed baseline;
* **enabled costs <= 5%** -- metrics are incremented per *batch*, never
  per event, so switching them on moves the 10^6-event feed by at most a
  few counter adds per feed.  Asserted here as best-of-N enabled vs
  best-of-N disabled.

The run also writes the enabled engine's full Prometheus exposition to
``BENCH_obs_metrics.prom`` (repo root), which CI uploads as a workflow
artifact -- a real metrics dump from a real 10^6-event run, refreshed
every build.
"""

import time
from pathlib import Path

import pytest

from repro import obs
from repro.engine import HistoryCheckerEngine
from repro.workloads import generators

#: Where the enabled run's Prometheus text exposition lands (CI artifact).
METRICS_DUMP = Path(__file__).resolve().parent.parent / "BENCH_obs_metrics.prom"


@pytest.fixture(scope="module")
def conforming_1m():
    """~10^6 conforming events over 10^5 accounts, plus the six-spec suite."""
    return generators.conforming_banking_stream(seed=2026, objects=100_000, mean_length=10)


def _engine(suite, obs_setting):
    engine = HistoryCheckerEngine(obs=obs_setting)
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside every timer
    return engine


def _best_feeds(pairs, runs=7):
    """Best-of-``runs`` feed per ``(engine, batch)`` pair, interleaved.

    Interleaving the configurations (disabled, enabled, disabled, ...)
    instead of timing them back to back cancels slow machine drift --
    thermal throttling or a noisy CI neighbour hits both sides equally.
    """
    best = [float("inf")] * len(pairs)
    for _ in range(runs):
        for i, (engine, batch) in enumerate(pairs):
            stream = engine.open_stream()
            start = time.perf_counter()
            stream.feed_events(batch)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_e26_metrics_enabled_streaming_overhead(benchmark, run_once, conforming_1m):
    _histories, events, suite = conforming_1m
    disabled = _engine(suite, False)
    registry = obs.MetricsRegistry("e26")
    enabled = _engine(suite, registry)
    assert disabled._obs is None and enabled._obs is not None

    disabled_batch = disabled.encode_events(events)
    enabled_batch = enabled.encode_events(events)
    disabled_elapsed, enabled_elapsed = _best_feeds(
        [(disabled, disabled_batch), (enabled, enabled_batch)]
    )

    def ten_enabled_streams():
        # Ten full instrumented feeds per tracked unit, mirroring E25's
        # shape so the case clears the CI gate's 50ms tracking floor.
        for _ in range(10):
            stream = enabled.open_stream()
            stream.feed_events(enabled_batch)
        return stream

    run_once(benchmark, ten_enabled_streams)

    overhead = enabled_elapsed / disabled_elapsed
    print(
        f"\n[E26] streaming {len(events)} events x {len(suite)} specs: "
        f"disabled {disabled_elapsed * 1000:.0f}ms, enabled {enabled_elapsed * 1000:.0f}ms, "
        f"overhead {(overhead - 1) * 100:+.1f}%"
    )

    # The registry saw every feed: per-batch counters are exact, and each
    # timed or benchmarked run fed the same encoded batch once.
    data = registry.to_dict()
    assert data["repro_engine_events_total"] % len(events) == 0
    feeds = data["repro_engine_events_total"] // len(events)
    assert data["repro_engine_batches_total"] == feeds
    assert data["repro_engine_streams_opened_total"] == feeds
    assert data["repro_kernel_events_total"] == feeds * len(events)

    METRICS_DUMP.write_text(registry.render_text())
    print(f"[E26] metrics exposition written to {METRICS_DUMP.name}")

    assert overhead <= 1.05, (
        f"enabled metrics must cost <= 5% on the streaming path, measured "
        f"{(overhead - 1) * 100:+.1f}%"
    )
