"""E25: warm replay -- one encoded batch fed again and again through the kernel.

A kernel microbenchmark, not an end-to-end number (``monitor_bench`` is the
end-to-end one): the six-constraint monitoring workload of E23 (~10^6
mostly-conforming events from 10^5 accounts) is encoded once, and the
tracked unit feeds that batch to ten fresh streams, each replaying the peel
plan cached on the batch.  The unit runs uninstrumented with the shape of
E26's instrumented one, so a slower disabled-metrics path regresses E25
against the committed baseline.

The streamed verdicts must equal ``check_batch_all`` over the fixture's
histories.
"""

import time

import pytest

from repro.engine import HistoryCheckerEngine
from repro.workloads import generators


@pytest.fixture(scope="module")
def conforming_1m():
    """~10^6 conforming events over 10^5 accounts, plus the six-spec suite."""
    return generators.conforming_banking_stream(seed=2026, objects=100_000, mean_length=10)


def _engine(suite):
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside every timer
    return engine


def test_e25_warm_replay_streaming(benchmark, run_once, conforming_1m):
    histories, events, suite = conforming_1m
    engine = _engine(suite)
    engine.open_stream().feed_events([])  # build the kernel outside every timer
    batch = engine.encode_events(events)

    def ten_streams():
        # The tracked unit is ten full feeds: one warm feed sits under the
        # CI gate's 50ms tracking floor, which would silently untrack E25.
        for _ in range(10):
            stream = engine.open_stream()
            stream.feed_events(batch)
        return stream

    stream = run_once(benchmark, ten_streams)
    start = time.perf_counter()
    engine.open_stream().feed_events(batch)
    elapsed = time.perf_counter() - start
    print(
        f"\n[E25] warm replay of {len(events)} events x {len(suite)} specs: "
        f"{elapsed * 1000:.0f}ms a feed (cached peel plan, nothing encoded)"
    )
    expected = engine.check_batch_all(histories)
    for name in suite:
        assert stream.verdicts(name) == {
            index: verdict
            for index, (history, verdict) in enumerate(zip(histories, expected[name]))
            if history
        }, name
