"""Run one workload of the monitor benchmark and print its metrics.

From the root of a checkout::

    python3 monitor_bench/run.py --workload stream_ingest --seed 1 --seconds 10 --trace 0

The monitor is imported from the checkout's own ``src/`` (nothing needs
installing).  The run generates its inputs from ``--seed``, sets the monitor
up several times, then makes measured passes over the inputs for
``--seconds`` seconds of wall time, each after a round of timed fresh
set-ups, checking every pass's output.  It prints a readable summary, then,
as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` its
``per_layer`` metrics (the traced run also makes an untraced phase, to
report the tracing overhead).  Scratch files (journal directories, the span
dump of a traced run) go under ``.monitor_bench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".monitor_bench")

#: Fresh set-ups before the first pass (warm-up; the traced run's compile figures).
SETUP_REPEATS = 21
#: Fresh set-ups before every untraced pass; ``setup_s`` is read from these.
SETUP_ROUND = 5
#: Every measured phase makes at least this many passes, however short ``--seconds``.
MIN_PASSES = 2


def _import_monitor() -> None:
    """Import the checkout's own sources -- never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"monitor_bench: no monitor sources under {SRC}; run it from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"monitor_bench: imported repro from {repro.__file__}, not from {SRC}")


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark at the current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the watermark then also covers input generation


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median(values):
    return statistics.median(values) if values else 0.0


def _set_up(workload, tracer=None, repeats=SETUP_REPEATS):
    """``repeats`` fresh set-ups; returns their times, the span range of
    each and the last engine (traced set-ups get a private metrics registry,
    which the traced passes then read)."""
    from repro.obs import MetricsRegistry

    times, ranges, engine = [], [], None
    for _ in range(repeats):
        registry = MetricsRegistry() if tracer is not None else None
        gc.collect()
        first = len(tracer.spans) if tracer is not None else 0
        start = perf_counter()
        engine, session = workload.setup(registry, tracer)
        times.append(perf_counter() - start)
        ranges.append((first, len(tracer.spans) if tracer is not None else 0))
        workload.release(session)
    return times, ranges, engine


def _passes(workload, engine, seconds: float, tracer, setup_rounds=None):
    """Passes, each with its checks, until ``seconds`` of wall time are spent.

    The budget is wall time, checks included, so a run's length does not
    depend on how fast the monitor is; every pass starts before the deadline.
    With ``setup_rounds``, a round of ``SETUP_ROUND`` fresh set-ups precedes
    every pass and its times are appended there, so set-up is sampled over
    the whole run like the passes are.
    """
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        if setup_rounds is not None:
            setup_rounds.append(_set_up(workload, repeats=SETUP_ROUND)[0])
        gc.collect()  # the previous pass's session is dead; collect it before timing
        passes.append(workload.run_pass(engine, tracer))
    return passes


def _rate(one_pass) -> float:
    return one_pass.events / sum(one_pass.latencies)


def best_per_position(rows):
    """Per position, the best time over the rows (passes, or set-up rounds).

    Every pass makes the same calls on a fresh session, so position ``i`` is
    the same cold call repeated once a pass.  Code on a shared machine runs
    in phases up to 2x slower for seconds at a time (other tenants); the
    best of the repeats filters those phases out, where a median over passes
    would read whichever phase dominated the run.
    """
    return [min(column) for column in zip(*rows)]


def best_latencies(passes):
    return best_per_position([p.latencies for p in passes])


def _end_to_end(passes, setup_rounds, peak_mb):
    latencies = best_latencies(passes)
    return {
        "setup_s": statistics.median(best_per_position(setup_rounds)),
        "events_per_s": passes[0].events / sum(latencies),
        "batch_p50_ms": statistics.median(latencies) * 1e3,
        # p90: the highest percentile with >= 10 samples beyond it at ~100 calls a pass.
        "batch_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": peak_mb,
    }


def _extras(passes):
    keys = sorted({key for one_pass in passes for key in one_pass.extra})
    return {key: _median([p.extra[key] for p in passes if key in p.extra]) for key in keys}


def _per_layer(passes, tracer, setup_ranges, untraced_rate, declared):
    """Every declared per-layer metric; a layer the workload bypasses reads 0."""
    values = {metric["name"]: 0 for metric in declared}
    for key in sorted({key for one_pass in passes for key in one_pass.layers}):
        values[key] = _median([p.layers[key] for p in passes if key in p.layers])
    setups = [tracer.totals(start, stop) for start, stop in setup_ranges]
    for name, span in (
        ("compile.add_spec_s", "compile.add_spec"),
        ("compile.compile_s", "compile.compile"),
        ("compile.kernel_build_s", "compile.kernel_build"),
    ):
        values[name] = _median([totals[span] for totals in setups])
    values.update(_extras(passes))
    traced_rate = passes[0].events / sum(best_latencies(passes))
    values["trace.events_per_s"] = traced_rate
    values["trace.untraced_events_per_s"] = untraced_rate
    values["trace.slowdown"] = untraced_rate / traced_rate
    return values


def measure(workload, seconds: float, trace: bool, declared, trace_path: str):
    """Run one workload; returns the result object printed as the last line."""
    workload.generate()
    gc.collect()
    gc.freeze()  # the inputs live all run long: keep them out of every collection
    _times, _ranges, engine = _set_up(workload)
    _reset_peak_rss()
    setup_rounds = []
    passes = _passes(workload, engine, seconds / 2 if trace else seconds, None, setup_rounds)
    peak_mb = _peak_rss_mb()
    del engine
    e2e = _end_to_end(passes, setup_rounds, peak_mb)
    all_passes = list(passes)
    print(f"{workload.name}: {len(passes)} untraced passes, "
          f"{sum(len(p.latencies) for p in passes)} timed calls, "
          f"{passes[0].events} events a pass")
    print("  events/s by pass: " + " ".join(f"{_rate(p):.4g}" for p in passes))
    for name, value in {**e2e, **_extras(passes)}.items():
        print(f"  {name:28s} {value:.6g}")

    if trace:
        tracer = Tracer()
        _times, setup_ranges, engine = _set_up(workload, tracer)
        first = len(tracer.spans)
        traced = _passes(workload, engine, seconds / 2, tracer)
        del engine
        all_passes += traced
        values = _per_layer(traced, tracer, setup_ranges, e2e["events_per_s"], declared)
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tracer.write(trace_path)
        _print_stage_table(tracer, first, len(traced))
        print(f"  {len(traced)} traced passes; spans written to "
              f"{os.path.relpath(trace_path, ROOT)}")
        print(f"  tracing overhead: traced {values['trace.events_per_s']:.6g} vs untraced "
              f"{values['trace.untraced_events_per_s']:.6g} events/s "
              f"(x{values['trace.slowdown']:.3f})")
    else:
        values = e2e

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    for problem in (problem for p in all_passes for problem in p.problems):
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(f"  {'error_rate':28s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_stage_table(tracer, first: int, passes: int) -> None:
    """Per span name of the traced passes: mean total and self seconds a pass."""
    totals = tracer.totals(first)
    own = tracer.self_totals(first)
    print(f"  {'span':24s} {'total s/pass':>14s} {'self s/pass':>14s}")
    for name in sorted(totals, key=totals.get, reverse=True):
        print(f"  {name:24s} {totals[name] / passes:14.6f} {own[name] / passes:14.6f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input-size factor (the self-test runs toy sizes)"
    )
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    _import_monitor()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    trace_path = os.path.join(SCRATCH, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        result = measure(workload, args.seconds, bool(args.trace), declared, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
