"""Kernel walkthrough: the monitoring suite advanced by numpy gathers.

The kernel (:mod:`repro.engine.vector`) fuses every registered spec into
product automata, mirrors their transition tables as flat narrow-dtype
ndarrays and advances a whole encoded batch with column gathers instead of
a per-event Python loop.  This example

1. registers the six-constraint banking monitoring suite and streams one
   pre-encoded event batch through it (verdicts checked against
   ``check_batch_all`` over the same histories),
2. peeks at the machinery: the per-group table dtypes from the
   uint8/uint16/uint32 ladder and the peel plan cached on the batch, which
   a warm re-feed replays, and
3. snapshots the session and restores it into a fresh engine.

Run with:  python examples/vector_kernel.py
"""

import time

import numpy as np

from repro.engine import HistoryCheckerEngine
from repro.workloads import generators


def build_engine(suite) -> HistoryCheckerEngine:
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside the timers
    return engine


def timed_feed(engine, batch):
    """One feed of a pre-encoded batch into a fresh stream."""
    stream = engine.open_stream()
    start = time.perf_counter()
    stream.feed_events(batch)
    return time.perf_counter() - start, stream


def main() -> None:
    histories, events, suite = generators.conforming_banking_stream(
        seed=7, objects=20_000, mean_length=10
    )
    print(f"monitoring suite: {', '.join(suite)}")
    print(f"stream: {len(events)} events over {len(histories)} accounts (numpy {np.__version__})")

    # ----------------------------------------------------------------- #
    # 1. One encoded batch through the kernel: a fresh feed, then a warm
    #    replay of the peel plan the first feed cached on the batch.
    # ----------------------------------------------------------------- #
    engine = build_engine(suite)
    batch = engine.encode_events(events)
    fresh_s, stream = timed_feed(engine, batch)
    warm_s, _ = timed_feed(engine, batch)
    print(f"\nfresh feed:  {fresh_s * 1000:6.1f}ms (peel plan built)")
    print(f"warm replay: {warm_s * 1000:6.1f}ms (cached plan; a microbenchmark)")
    expected = engine.check_batch_all(histories)
    for name in suite:
        verdicts = stream.verdicts(name)
        assert all(verdicts[i] == expected[name][i] for i in verdicts), name

    # ----------------------------------------------------------------- #
    # 2. The machinery: dtype ladder and the cached peel plan.
    # ----------------------------------------------------------------- #
    kernel = engine._kernel_for(tuple(suite))
    for index, group in enumerate(kernel.groups):
        table = kernel._table(index).table
        print(
            f"group {index}: {len(group.names)} spec(s), "
            f"{table.shape[0]} product states x {table.shape[1]} symbols, "
            f"dtype {table.dtype} ({table.nbytes} bytes)"
        )
    chunk_size, _plan, (gathers, scalar_events) = batch._np_plan
    print(
        f"peel plan: {gathers} gather rounds over "
        f"{-(-len(events) // chunk_size)} chunks of {chunk_size} events "
        f"({scalar_events} scalar-fallback events), "
        f"cached on the batch (warm feeds replay it)"
    )

    # ----------------------------------------------------------------- #
    # 3. Snapshot the session, restore it into a fresh engine.
    # ----------------------------------------------------------------- #
    blob = stream.snapshot()
    restored = build_engine(suite).restore_stream(blob)
    assert restored.all_verdicts() == stream.all_verdicts()
    print(f"\nsnapshot: {len(blob) / 1024:.0f}KB, restored verdict-identical into a fresh engine")


if __name__ == "__main__":
    main()
