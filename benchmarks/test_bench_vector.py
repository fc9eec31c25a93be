"""E25: the vectorized kernel -- numpy gathers over the cached peel plan.

The scale claims of the vector PR, pinned by in-test assertions on the same
six-constraint monitoring workload as E23 (~10^6 mostly-conforming events
from 10^5 accounts):

* the numpy gather kernel streams an encoded batch at least 4x faster than
  the pure-Python fused kernel (it is ~10x on a dev VM: the per-event
  subscript interpreter collapses into a handful of whole-column gathers
  replayed from the batch's cached peel plan).

Both engines check the identical verdicts; the assertion is conservative
because dev VMs are noisy -- the printed numbers carry the real ratios.
"""

import time

import pytest

from repro.engine import HistoryCheckerEngine
from repro.workloads import generators

np = pytest.importorskip("numpy")


@pytest.fixture(scope="module")
def conforming_1m():
    """~10^6 conforming events over 10^5 accounts, plus the six-spec suite."""
    return generators.conforming_banking_stream(seed=2026, objects=100_000, mean_length=10)


def _engine(suite, kind):
    engine = HistoryCheckerEngine(kernel=kind)
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside every timer
    return engine


def _timed_stream(engine, events, runs=4):
    """Best-of-``runs`` feed of a pre-encoded batch, plus the last stream."""
    batch = engine.encode_events(events)
    best, stream = float("inf"), None
    for _ in range(runs):
        stream = engine.open_stream()
        start = time.perf_counter()
        stream.feed_events(batch)
        best = min(best, time.perf_counter() - start)
    return best, stream


def test_e25_vector_streaming_beats_fused(benchmark, run_once, conforming_1m):
    _histories, events, suite = conforming_1m
    fused = _engine(suite, "fused")
    vector = _engine(suite, "vector")

    fused_elapsed, fused_stream = _timed_stream(fused, events)
    vector_elapsed, vector_stream = _timed_stream(vector, events)

    batch = vector.encode_events(events)

    def ten_vector_streams():
        # The tracked unit is ten full feeds: one warm feed sits under the
        # CI gate's 50ms tracking floor, which would silently untrack E25.
        for _ in range(10):
            stream = vector.open_stream()
            stream.feed_events(batch)
        return stream

    run_once(benchmark, ten_vector_streams)
    speedup = fused_elapsed / vector_elapsed
    print(
        f"\n[E25] streaming {len(events)} events x {len(suite)} specs: "
        f"fused {fused_elapsed * 1000:.0f}ms, vector {vector_elapsed * 1000:.0f}ms, "
        f"speedup {speedup:.1f}x"
    )
    for name in suite:
        assert vector_stream.verdicts(name) == fused_stream.verdicts(name), name
    assert speedup >= 4.0, f"expected >= 4x over the fused kernel, got {speedup:.2f}x"
