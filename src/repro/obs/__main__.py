"""``python -m repro.obs`` -- run an instrumented workload, print the report.

The quickest way to *see* the observability layer: the CLI enables metrics
and span tracing, drives a synthetic banking workload through a streaming
session and a fused batch check, and prints the Prometheus text exposition
plus the recorded span trees.  It doubles as a self-check that every
instrument in the catalog is wired (the exposition is generated from the
live registry, not from a static list).

Options::

    python -m repro.obs --objects 5000 --batches 20 --seed 7
    python -m repro.obs --format json          # machine-readable stats dump
    python -m repro.obs --no-spans             # metrics only
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import obs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=(
            "Run a synthetic workload against an instrumented engine and print "
            "its metrics and span report."
        ),
    )
    parser.add_argument(
        "--objects", type=int, default=2000, help="objects in the synthetic stream"
    )
    parser.add_argument(
        "--batches", type=int, default=10, help="event batches to feed the stream"
    )
    parser.add_argument("--seed", type=int, default=2026, help="workload RNG seed")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text: Prometheus exposition + span trees; json: engine.stats()",
    )
    parser.add_argument(
        "--no-spans", action="store_true", help="collect metrics but not span traces"
    )
    return parser


def run_workload(objects: int, batches: int, seed: int):
    """Drive a banking workload through an instrumented engine; return it."""
    import random

    from repro.engine.engine import HistoryCheckerEngine
    from repro.workloads.generators import conforming_banking_stream

    engine = HistoryCheckerEngine()
    histories, events, suite = conforming_banking_stream(
        seed, objects, mean_length=6, noise=0.05, rng=random.Random(seed)
    )
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    names = list(suite)
    stream = engine.open_stream(names)
    step = max(1, len(events) // max(1, batches))
    for start in range(0, len(events), step):
        stream.feed_events(events[start : start + step])
    stream.all_verdicts()
    engine.check_batch_all(histories[: min(len(histories), 512)], names)
    blob = stream.snapshot()
    engine.restore_stream(blob)
    return engine


def main(argv: Optional[List[str]] = None) -> int:
    options = _build_parser().parse_args(argv)
    registry = obs.enable(obs.MetricsRegistry("cli"), spans=not options.no_spans)
    try:
        engine = run_workload(options.objects, options.batches, options.seed)
        if options.format == "json":
            print(json.dumps(engine.stats(), indent=2, sort_keys=True))
            return 0
        print(registry.render_text(), end="")
        spans = obs.recent_spans()
        if spans:
            print()
            print("# Span trees (most recent last)")
            for span in spans:
                print(span.render())
        return 0
    finally:
        obs.disable()


if __name__ == "__main__":
    sys.exit(main())
