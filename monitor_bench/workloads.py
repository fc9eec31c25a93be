"""The three monitor workloads: inputs, set-up, one measured pass, checks.

Every workload drives the monitor from outside, through its public API only:
``kernel="auto"`` (the vector kernel when numpy imports), the default serial
executor, one closed-loop caller in one process.  Inputs come from
:mod:`repro.workloads.generators`; building them stays outside every timer
and outside ``setup_s``.  README.md says why each workload exists and which
layers it stresses or bypasses.

A *pass* feeds the workload's whole input once through a fresh session.  An
untraced pass times each public call as it is made; a traced pass splits
each call into the stages of the monitor, with spans around public calls
(see ``tracing.py``), and re-runs work in shadow sessions to time the parts
that a single call hides.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import traceback
from contextlib import nullcontext
from operator import itemgetter
from time import perf_counter
from typing import Dict, List, Optional

from repro.engine import EncodedBatch, HistoryCheckerEngine, Violation
from repro.obs import MetricsRegistry
from repro.workloads import generators

from tracing import Tracer

#: Full-size inputs (``--scale 1``); the self-test runs the same shapes scaled down.
#: A stream pass is ~100 calls and short (~0.1 s), so a run makes a hundred
#: or more passes and every call position is repeated often enough for its
#: best time to reach the machine's fast phases (see ``run.best_per_position``).
STREAM_OBJECTS = 20_000
DURABLE_OBJECTS = 10_000
AUDIT_HISTORIES = 100_000
MEAN_LENGTH = 10
STREAM_BATCH = 2_000
DURABLE_BATCH = 1_000
#: Admitted events between the checkpoints the benchmark cuts, explicitly so
#: that the call is timeable: a tenth of the library's default
#: ``checkpoint_every``, scaled with the input so that one batch in five
#: still ends in a checkpoint and ``batch_p90_ms`` holds checkpoint batches.
CHECKPOINT_EVERY = 5_000
#: Admitted events that must sit in the journal past the last checkpoint
#: when the session is abandoned, so recovery replays a real tail.
MIN_TAIL = 3_000
AUDIT_REQUEST = 1_000
#: Ground-truth histories per pass whose verdicts are checked against
#: ``DFA.accepts`` (a fixed seeded sample).
ORACLE_SAMPLE = 2_000
#: Accounts per durable pass checked for doom under every spec: ``doomed()``
#: is a per-object call, so a larger sample eats the time of measured passes.
DOOMED_SAMPLE = 500

_ID = itemgetter(0)
_SYMBOL = itemgetter(1)
_NO_SPAN = nullcontext()

#: Per-layer kernel counters and the metric families they are read from.
KERNEL_COUNTERS = {
    "kernel.gather_rounds": "repro_kernel_gather_rounds_total",
    "kernel.scalar_fallback_events": "repro_kernel_scalar_fallback_events_total",
    "kernel.sink_skips": "repro_kernel_sink_skipped_passes_total",
    "kernel.plan_cache_misses": "repro_kernel_plan_cache_misses_total",
}
SNAPSHOT_DUMP_BYTES = 'repro_engine_snapshot_bytes_total{direction="dump"}'
EVENTS_FED = "repro_engine_events_total"


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else _NO_SPAN


def metric_sum(metrics: Dict[str, float], family: str) -> float:
    """One metric family summed over its label sets (or one rendered series)."""
    return sum(
        value
        for key, value in metrics.items()
        if key == family or key.startswith(family + "{")
    )


def kernel_counters(engine: HistoryCheckerEngine) -> Dict[str, float]:
    metrics = engine.stats()["metrics"]
    return {label: metric_sum(metrics, family) for label, family in KERNEL_COUNTERS.items()}


def build_engine(suite, registry=None, tracer: Optional[Tracer] = None) -> HistoryCheckerEngine:
    """Engine construction, one ``add_spec`` per spec, then ``compiled()`` of each.

    ``registry`` instruments the engine against a private metrics registry
    (traced runs); otherwise observability is off.
    """
    engine = HistoryCheckerEngine(obs=registry if registry is not None else False)
    with _span(tracer, "compile.add_spec"):
        for name, spec in suite.items():
            engine.add_spec(name, spec)
    with _span(tracer, "compile.compile"):
        for name in suite:
            engine.compiled(name)
    return engine


class PassResult:
    """What one pass measured: op latencies, failures and per-layer values."""

    def __init__(self) -> None:
        self.events = 0
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Per-layer values of a traced pass (BENCHMARK.json ``per_layer`` names).
        self.layers: Dict[str, float] = {}
        #: Workload-specific end-to-end figures outside the common set.
        self.extra: Dict[str, float] = {}

    def fail_all(self, problem: str) -> None:
        """The pass's output is wrong: every operation of it counts as failed."""
        self.problems.append(problem)
        self.failed = self.attempted


class Workload:
    """Common plumbing: seed, scale, the scratch directory, the oracle sample."""

    name = ""

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.suite: Dict[str, object] = {}

    def _oracle_sample(self, count: int, size: int = ORACLE_SAMPLE) -> List[int]:
        size = min(count, _scaled(size, self.scale, 50))
        return sorted(random.Random(self.seed).sample(range(count), size))

    def _dfas(self):
        return {name: spec.automaton.determinize() for name, spec in self.suite.items()}

    def release(self, session) -> None:
        """Close what :meth:`setup` opened (nothing, for in-memory sessions)."""

    def run_pass(self, engine: HistoryCheckerEngine, tracer: Optional[Tracer]) -> PassResult:
        result = PassResult()
        try:
            self._pass(engine, tracer, result)
        except Exception:  # one broken pass is reported, not fatal to the run
            traceback.print_exc()
            result.fail_all(f"{self.name}: the pass raised")
        return result


class StreamIngest(Workload):
    """Fresh raw events with int ids through a plain ``open_stream()`` session."""

    name = "stream_ingest"

    def generate(self) -> None:
        histories, events, self.suite = generators.conforming_banking_stream(
            seed=self.seed,
            objects=_scaled(STREAM_OBJECTS, self.scale, 100),
            mean_length=MEAN_LENGTH,
        )
        step = _scaled(STREAM_BATCH, self.scale, 10)
        self.slices = [events[start : start + step] for start in range(0, len(events), step)]
        self.n_events = len(events)
        self.n_objects = len(histories)
        sample = self._oracle_sample(len(histories))
        self.expected = {
            name: {index: dfa.accepts(histories[index]) for index in sample}
            for name, dfa in self._dfas().items()
        }

    def setup(self, registry=None, tracer: Optional[Tracer] = None):
        engine = build_engine(self.suite, registry, tracer)
        with _span(tracer, "session.open"):
            stream = engine.open_stream()
        with _span(tracer, "compile.kernel_build"):
            stream.feed_events([])
        return engine, stream

    def _pass(self, engine, tracer, result: PassResult) -> None:
        stream = engine.open_stream()
        stream.feed_events([])
        gc.collect()
        if tracer is None:
            latencies = result.latencies
            for chunk in self.slices:
                result.attempted += 1
                start = perf_counter()
                stream.feed_events(chunk)
                latencies.append(perf_counter() - start)
                result.events += len(chunk)
        else:
            self._traced_feed(engine, stream, tracer, result)
        self._check(stream, result)

    def _traced_feed(self, engine, stream, tracer: Tracer, result: PassResult) -> None:
        # Each batch is encoded through the public calls feed_events makes
        # internally, then fed pre-encoded, so ingest and kernel time apart.
        # The shadow session adopts the real session's interner on its first
        # pre-encoded batch and is fed every batch right after the real one:
        # same state, cached peel plan -- a warm-replay microbenchmark.
        interner = stream.object_interner
        alphabet = engine.alphabet
        shadow = engine.open_stream()
        mark = len(tracer.spans)
        counts = dict.fromkeys(KERNEL_COUNTERS, 0)
        before = kernel_counters(engine)
        for chunk in self.slices:
            result.attempted += 1
            with tracer.span("feed.batch") as top:
                with tracer.span("ingest.intern"):
                    ids = interner.intern_column(list(map(_ID, chunk)))
                with tracer.span("ingest.encode"):
                    codes = alphabet.encode_column(list(map(_SYMBOL, chunk)))
                    batch = EncodedBatch(ids, codes, interner, alphabet)
                with tracer.span("kernel.advance"):
                    stream.feed_events(batch)
            result.latencies.append(top.duration)
            result.events += len(chunk)
            after = kernel_counters(engine)
            for label in counts:
                counts[label] += after[label] - before[label]
            with tracer.span("kernel.warm_advance"):
                shadow.feed_events(batch)
            before = kernel_counters(engine)
        totals = tracer.totals(mark)
        own = tracer.self_totals(mark)
        result.layers.update(counts)
        result.layers.update(
            {
                "ingest.intern_s": totals["ingest.intern"],
                "ingest.encode_s": totals["ingest.encode"],
                "ingest.interner_dense": int(interner.to_snapshot()[0] == "dense"),
                "kernel.advance_s": totals["kernel.advance"],
                "kernel.warm_advance_s": totals["kernel.warm_advance"],
                "trace.feed_s": totals["feed.batch"],
                "trace.unattributed_share": own["feed.batch"] / totals["feed.batch"],
            }
        )

    def _check(self, stream, result: PassResult) -> None:
        if stream.events_seen != self.n_events:
            result.fail_all(f"events_seen {stream.events_seen} != {self.n_events} offered")
            return
        verdicts = stream.all_verdicts()
        for name, expected in self.expected.items():
            got = verdicts[name]
            if len(got) != self.n_objects:
                result.fail_all(f"{name}: {len(got)} objects tracked, {self.n_objects} fed")
            wrong = [index for index, verdict in expected.items() if got.get(index) != verdict]
            if wrong:
                result.fail_all(
                    f"{name}: {len(wrong)} verdicts differ from DFA.accepts (object {wrong[0]})"
                )


class DurableEnforce(Workload):
    """String-keyed events through a journaled, enforced durable session."""

    name = "durable_enforce"

    def generate(self) -> None:
        histories, events, self.suite = generators.conforming_banking_stream(
            seed=self.seed,
            objects=_scaled(DURABLE_OBJECTS, self.scale, 100),
            mean_length=MEAN_LENGTH,
        )
        keys = [f"acct-{index:06d}" for index in range(len(histories))]
        events = [(keys[object_id], symbol) for object_id, symbol in events]
        step = _scaled(DURABLE_BATCH, self.scale, 10)
        self.slices = [events[start : start + step] for start in range(0, len(events), step)]
        self.n_events = len(events)
        self.checkpoint_every = _scaled(CHECKPOINT_EVERY, self.scale, 2)
        self.min_tail = _scaled(MIN_TAIL, self.scale, 1)
        # No checkpoint once fewer than min_tail + one batch events remain,
        # so the abandoned journal always holds a tail of >= min_tail.
        self.tail_room = self.min_tail + step
        self.sample_keys = [
            keys[index] for index in self._oracle_sample(len(histories), DOOMED_SAMPLE)
        ]

    def _open(self, engine, directory: str):
        # The library's default durability: every batch is appended and
        # flushed to the OS before it applies, so it survives a process
        # crash; checkpoints are always written tmp + fsync + rename.  A
        # per-batch fsync would time the disk, whose latency on a shared
        # machine swings several-fold, rather than the monitor.
        return engine.open_durable_stream(directory, checkpoint_every=None)

    def setup(self, registry=None, tracer: Optional[Tracer] = None):
        engine = build_engine(self.suite, registry, tracer)
        with _span(tracer, "session.open"):
            directory = tempfile.mkdtemp(prefix="journal-", dir=self.workdir)
            durable = self._open(engine, directory)
        with _span(tracer, "compile.kernel_build"):
            durable.feed_events([], enforce=True)
        return engine, (directory, durable)

    def release(self, session) -> None:
        directory, durable = session
        durable.close()
        shutil.rmtree(directory)

    def _pass(self, engine, tracer, result: PassResult) -> None:
        directory = tempfile.mkdtemp(prefix="journal-", dir=self.workdir)
        try:
            self._feed_and_recover(engine, directory, tracer, result)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _feed_and_recover(self, engine, directory: str, tracer, result: PassResult) -> None:
        durable = self._open(engine, directory)
        durable.feed_events([], enforce=True)
        offered = admitted = rejected = since = 0
        mark = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            # The same encoded batch goes to an in-memory shadow session with
            # enforce=True (same admitted state) to time the screen alone.
            interner = durable.stream.object_interner
            alphabet = engine.alphabet
            shadow = engine.open_stream()
            counts = dict.fromkeys(KERNEL_COUNTERS, 0)
            dumped = metric_sum(engine.stats()["metrics"], SNAPSHOT_DUMP_BYTES)
        gc.collect()
        for chunk in self.slices:
            result.attempted += 1
            if tracer is None:
                start = perf_counter()
                report = durable.feed_events(chunk, enforce=True)
                offered += len(chunk)
                since += int(report)
                if since >= self.checkpoint_every and self.n_events - offered >= self.tail_room:
                    durable.checkpoint()
                    since = 0
                result.latencies.append(perf_counter() - start)
            else:
                before = kernel_counters(engine)
                with tracer.span("feed.batch") as top:
                    with tracer.span("ingest.intern"):
                        ids = interner.intern_column(list(map(_ID, chunk)))
                    with tracer.span("ingest.encode"):
                        codes = alphabet.encode_column(list(map(_SYMBOL, chunk)))
                        batch = EncodedBatch(ids, codes, interner, alphabet)
                    with tracer.span("journal.feed"):
                        report = durable.feed_events(batch, enforce=True)
                    offered += len(chunk)
                    since += int(report)
                    if since >= self.checkpoint_every and self.n_events - offered >= self.tail_room:
                        with tracer.span("journal.checkpoint"):
                            durable.checkpoint()
                        since = 0
                result.latencies.append(top.duration)
                after = kernel_counters(engine)
                for label in counts:
                    counts[label] += after[label] - before[label]
                with tracer.span("enforce.screen"):
                    shadow.feed_events(batch, enforce=True)
            admitted += int(report)
            rejected += report.rejection_count
            result.events += len(chunk)

        # -- checks and figures, outside every timer --
        stream = durable.stream
        if admitted + rejected != offered or offered != self.n_events:
            result.fail_all(f"admitted {admitted} + rejected {rejected} != offered {offered}")
        if durable.events_seen != admitted:
            result.fail_all(f"events_seen {durable.events_seen} != {admitted} admitted")
        if since < self.min_tail:
            result.fail_all(f"only {since} admitted events journaled past the last checkpoint")
        doomed = [
            (name, key) for key in self.sample_keys for name in self.suite if stream.doomed(name, key)
        ]
        if doomed:
            result.fail_all(f"{len(doomed)} doomed (spec, object) pairs, e.g. {doomed[0]}")
        journal = durable.stats()
        result.extra["wal_bytes_per_event"] = journal["bytes"] / admitted
        if tracer is not None:
            totals = tracer.totals(mark)
            own = tracer.self_totals(mark)
            result.layers.update(counts)
            result.layers.update(
                {
                    "ingest.intern_s": totals["ingest.intern"],
                    "ingest.encode_s": totals["ingest.encode"],
                    "ingest.interner_dense": int(interner.to_snapshot()[0] == "dense"),
                    "enforce.screen_s": totals["enforce.screen"],
                    "enforce.rejections": rejected,
                    "enforce.admitted": admitted,
                    "journal.feed_s": totals["journal.feed"],
                    "journal.checkpoint_s": totals.get("journal.checkpoint", 0.0),
                    "journal.records": journal["records"],
                    "journal.bytes": journal["bytes"],
                    "journal.checkpoints": journal["checkpoints"],
                    "snapshot.bytes": metric_sum(engine.stats()["metrics"], SNAPSHOT_DUMP_BYTES)
                    - dumped,
                    "trace.feed_s": totals["feed.batch"],
                    "trace.unattributed_share": own["feed.batch"] / totals["feed.batch"],
                }
            )
            del shadow, interner
        verdicts = durable.all_verdicts()
        events_seen = durable.events_seen

        # Abandon the session without close(), as a crash would: every
        # append was already flushed to the OS.  Then recover on a fresh
        # engine with the same specs, as a restarted process would.
        del stream, durable, report
        gc.collect()
        registry = MetricsRegistry() if tracer is not None else None
        fresh = build_engine(self.suite, registry)
        gc.collect()
        result.attempted += 1
        with _span(tracer, "recovery"):
            start = perf_counter()
            recovered = fresh.recover_stream(directory, checkpoint_every=None)
            result.extra["recover_s"] = perf_counter() - start
        try:
            if recovered.events_seen != events_seen:
                result.fail_all(f"recovered events_seen {recovered.events_seen} != {events_seen}")
            if recovered.all_verdicts() != verdicts:
                result.fail_all("recovered verdicts differ from the abandoned session's")
        finally:
            recovered.close()
        if registry is not None:
            result.layers["recovery.replayed_events"] = metric_sum(
                fresh.stats()["metrics"], EVENTS_FED
            )


class BatchAudit(Workload):
    """Whole histories in requests: encode, check every spec, explain failures."""

    name = "batch_audit"

    def generate(self) -> None:
        # The streams' generator; only its ground-truth histories are used.
        histories, _events, self.suite = generators.conforming_banking_stream(
            seed=self.seed,
            objects=_scaled(AUDIT_HISTORIES, self.scale, 100),
            mean_length=MEAN_LENGTH,
        )
        del _events
        size = _scaled(AUDIT_REQUEST, self.scale, 2)
        self.requests = [histories[start : start + size] for start in range(0, len(histories), size)]
        self.request_events = [sum(map(len, request)) for request in self.requests]
        self.n_histories = len(histories)
        rng = random.Random(self.seed)
        per_request = max(1, _scaled(ORACLE_SAMPLE, self.scale, 50) // len(self.requests))
        dfas = self._dfas()
        self.expected = []
        for request in self.requests:
            sample = sorted(rng.sample(range(len(request)), min(per_request, len(request))))
            self.expected.append(
                {name: [(i, dfa.accepts(request[i])) for i in sample] for name, dfa in dfas.items()}
            )

    def setup(self, registry=None, tracer: Optional[Tracer] = None):
        engine = build_engine(self.suite, registry, tracer)
        with _span(tracer, "compile.kernel_build"):
            engine.check_batch_all([])
        return engine, None

    def _pass(self, engine, tracer, result: PassResult) -> None:
        names = tuple(self.suite)
        mark = len(tracer.spans) if tracer is not None else 0
        counts = dict.fromkeys(KERNEL_COUNTERS, 0)
        explains = failing = 0
        gc.collect()
        for request, expected, events in zip(self.requests, self.expected, self.request_events):
            result.attempted += 1
            if tracer is None:
                start = perf_counter()
                verdicts = engine.check_batch_all(engine.encode_histories(request))
                explained = [
                    (name, index, engine.explain(name, request[index]))
                    for name in names
                    for index in _first_failure(verdicts[name])
                ]
                result.latencies.append(perf_counter() - start)
            else:
                before = kernel_counters(engine)
                with tracer.span("audit.request") as top:
                    with tracer.span("audit.encode"):
                        encoded = engine.encode_histories(request)
                    with tracer.span("audit.check"):
                        verdicts = engine.check_batch_all(encoded)
                    with tracer.span("audit.explain"):
                        explained = [
                            (name, index, engine.explain(name, request[index]))
                            for name in names
                            for index in _first_failure(verdicts[name])
                        ]
                result.latencies.append(top.duration)
                after = kernel_counters(engine)
                for label in counts:
                    counts[label] += after[label] - before[label]
            result.events += events
            explains += len(explained)
            failing += sum(verdicts[name].count(False) for name in names)
            problem = self._check(request, expected, verdicts, explained)
            if problem:
                result.failed += 1
                result.problems.append(problem)
        if tracer is not None:
            totals = tracer.totals(mark)
            own = tracer.self_totals(mark)
            result.layers.update(counts)
            result.layers.update(
                {
                    "audit.encode_s": totals["audit.encode"],
                    "audit.check_s": totals["audit.check"],
                    "audit.explain_s": totals["audit.explain"],
                    "audit.explains": explains,
                    "audit.fail_fraction": failing / (self.n_histories * len(names)),
                    "trace.feed_s": totals["audit.request"],
                    "trace.unattributed_share": own["audit.request"] / totals["audit.request"],
                }
            )

    @staticmethod
    def _check(request, expected, verdicts, explained) -> Optional[str]:
        for name, pairs in expected.items():
            column = verdicts[name]
            if len(column) != len(request):
                return f"{name}: {len(column)} verdicts for {len(request)} histories"
            for index, verdict in pairs:
                if column[index] != verdict:
                    return f"{name}: history {index} verdict differs from DFA.accepts"
        for name, index, violation in explained:
            if not isinstance(violation, Violation):
                return f"{name}: explain() of failing history {index} returned {violation!r}"
            if violation.doomed and violation.fatal_index is None:
                return f"{name}: doomed history {index} has no fatal index"
            if not violation.doomed and violation.completion is None:
                return f"{name}: alive history {index} has no shortest completion"
        return None


def _first_failure(column: List[bool]) -> List[int]:
    """``[index of the first False]``, or ``[]`` when every verdict passes."""
    try:
        return [column.index(False)]
    except ValueError:
        return []


WORKLOADS = {cls.name: cls for cls in (StreamIngest, DurableEnforce, BatchAudit)}
