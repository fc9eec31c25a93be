"""E24: checkpoint/restore of a monitor beats re-feeding its stream.

The durability claim of the snapshot layer, pinned by in-test assertions:
a streaming session tracking 10^5 accounts against the six-spec banking
monitoring suite serializes (snapshot) and rebuilds (restore) in **under
10% of the time it takes to re-feed the ~10^6-event stream** that produced
its state -- the snapshot cost scales with the number of *objects*, not
with the number of events replayed into them.  The restored session is
asserted verdict-identical before any timing claim is made.

Outside the tracked unit, E24 also pins the state carry of a kernel rebuild
on a restored copy: the first feed carrying a never-seen role set, and the
first feed after a same-text re-registration of one spec, each cost at
most 5% of re-feeding the stream and leave every other verdict as it was.
The carry works once per distinct state, not once per object; a carry
that walks the objects in Python fails the bound.
"""

import time

from repro.engine import HistoryCheckerEngine
from repro.workloads import generators


def test_e24_snapshot_restore_beats_refeeding(benchmark, run_once):
    histories, events, suite = generators.conforming_banking_stream(
        seed=2027, objects=100_000, mean_length=10
    )
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    for name in suite:
        engine.compiled(name)  # compile outside every timer

    def feed_all():
        stream = engine.open_stream()
        batch = engine.encode_events(events, objects=stream.object_interner)
        stream.feed_events(batch)
        return stream

    feed_elapsed = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        stream = feed_all()
        feed_elapsed = min(feed_elapsed, time.perf_counter() - start)

    def checkpoint_cycle():
        return engine.restore_stream(stream.snapshot())

    cycle_elapsed = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        restored = checkpoint_cycle()
        cycle_elapsed = min(cycle_elapsed, time.perf_counter() - start)

    def checkpoint_cycles():
        # The tracked unit is 150 full cycles: one cycle takes ~0.5-1ms, far
        # under the CI gate's 50ms tracking floor, which would untrack E24.
        for _ in range(150):
            restored = checkpoint_cycle()
        return restored

    run_once(benchmark, checkpoint_cycles)

    blob_bytes = len(stream.snapshot())
    ratio = cycle_elapsed / feed_elapsed
    print(
        f"\n[E24] {len(histories)} objects x {len(suite)} specs "
        f"({len(events)} events): feed {feed_elapsed * 1000:.0f}ms, "
        f"snapshot+restore {cycle_elapsed * 1000:.0f}ms "
        f"({ratio:.1%} of re-feeding), blob {blob_bytes / 1024:.0f}KB"
    )

    assert restored.reset_on_restore == ()
    assert restored.events_seen == stream.events_seen
    for name in suite:
        assert restored.verdicts(name) == stream.verdicts(name), name
    assert ratio < 0.10, (
        f"snapshot+restore took {ratio:.1%} of re-feeding the stream (>= 10%)"
    )

    blob = stream.snapshot()
    expected = {name: stream.verdicts(name) for name in suite}
    target = next(iter(suite))
    fresh = len(histories)  # an object id the session has never seen

    def first_feed(copy, event, kept):
        start = time.perf_counter()
        copy.feed_events([event])
        elapsed = time.perf_counter() - start
        for name in kept:
            verdicts = copy.verdicts(name)
            verdicts.pop(fresh)
            assert verdicts == expected[name], name
        return elapsed

    alien_elapsed = reregister_elapsed = float("inf")
    for attempt in range(2):
        alien = (fresh, frozenset({f"ALIEN-{attempt}"}))
        alien_elapsed = min(alien_elapsed, first_feed(engine.restore_stream(blob), alien, suite))
        copy = engine.restore_stream(blob)
        engine.add_spec(target, suite[target])  # same text: a reset and a rebuild
        kept = [name for name in suite if name != target]
        known = (fresh, events[0][1])
        reregister_elapsed = min(reregister_elapsed, first_feed(copy, known, kept))
        assert copy.last_revalidation.specs == (target,)
    print(
        f"[E24] rebuild feeds: never-seen role set {alien_elapsed * 1000:.1f}ms "
        f"({alien_elapsed / feed_elapsed:.1%} of re-feeding), same-text re-registration "
        f"{reregister_elapsed * 1000:.1f}ms ({reregister_elapsed / feed_elapsed:.1%})"
    )
    for label, elapsed in (
        ("never-seen role set", alien_elapsed),
        ("re-registration", reregister_elapsed),
    ):
        assert elapsed <= 0.05 * feed_elapsed, (
            f"the {label} rebuild feed took {elapsed / feed_elapsed:.1%} of re-feeding (> 5%)"
        )
