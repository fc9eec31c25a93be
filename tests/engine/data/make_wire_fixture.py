"""Write the wire-format fixture that ``tests/engine/test_wire_fixture.py`` reads.

One small deterministic monitoring session, through the public API only:
the six-spec banking suite, string account ids, a recording durable stream
fed in 12-event batches through the enforcement gate (the noisy stream
makes it refuse some events), with ``checkpoint_every`` small enough that
the journal cuts two checkpoints after its initial one.  Into ``OUT`` it
writes::

    stream.snap       the session's snapshot() blob
    journal/          the durable stream's journal directory
    expected.json     events_seen, objects() and all_verdicts()

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/engine/data/make_wire_fixture.py OUT
    PYTHONPATH=src python tests/engine/data/make_wire_fixture.py OUT --without-numpy

``--without-numpy`` hides numpy from the interpreter before ``repro`` is
imported, so a build that ran without numpy writes its journal as it did
there (int64 ``q`` columns).  Builds that require numpy refuse to import.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BATCH = 12
CHECKPOINT_EVERY = 64


def _session_events():
    from repro.workloads import generators

    _histories, events, suite = generators.conforming_banking_stream(
        seed=16, objects=32, mean_length=7, noise=0.08
    )
    return [(f"acct-{o:02d}", symbol) for o, symbol in events], suite


def write_fixture(out: str) -> None:
    from repro.engine import HistoryCheckerEngine

    events, suite = _session_events()
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    os.makedirs(out, exist_ok=True)
    durable = engine.open_durable_stream(
        os.path.join(out, "journal"), record=True, checkpoint_every=CHECKPOINT_EVERY
    )
    refused = 0
    for start in range(0, len(events), BATCH):
        report = durable.feed_events(events[start : start + BATCH], enforce=True)
        refused += len(report.rejected)
    durable.close()
    stream = durable.stream
    with open(os.path.join(out, "stream.snap"), "wb") as handle:
        handle.write(stream.snapshot())
    expected = {
        "events_seen": stream.events_seen,
        "objects": list(stream.objects()),
        "verdicts": stream.all_verdicts(),
    }
    with open(os.path.join(out, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(events)} events offered, {refused} refused, {durable.stats()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to write the fixture into")
    parser.add_argument(
        "--without-numpy", action="store_true", help="hide numpy before importing repro"
    )
    options = parser.parse_args(argv)
    if options.without_numpy:
        sys.modules["numpy"] = None
    write_fixture(options.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
