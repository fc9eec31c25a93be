"""The streaming history-checker engine.

:class:`HistoryCheckerEngine` is the scale entry point of the package: it
checks large batches of object histories -- and unbounded event streams --
against named migration specifications.  Specs are registered once as
automata, inventories, compiled MCL constraints or MCL source text
(:mod:`repro.spec`), compiled on demand into table runners
(:mod:`repro.engine.compiler`) behind an LRU cache
(:mod:`repro.engine.cache`).

Since the columnar pipeline (:mod:`repro.engine.batch`) the engine's native
interchange format is *encoded columns*: every event batch and history set
is encoded **once** against the engine's shared
:class:`repro.formal.alphabet.RoleSetAlphabet`, all registered specs are
fused into one product kernel advanced in a single pass per batch, and
process-pool shards ship compact column bytes plus ``(name, generation)``
spec references resolved through a worker-local cache -- never pickled
frozensets.

Typical use::

    engine = HistoryCheckerEngine()
    engine.add_spec("checking", banking.checking_role_inventory())
    verdicts = engine.check_batch("checking", histories)      # batch
    by_spec = engine.check_batch_all(histories)               # fused batch

    stream = engine.open_stream(["checking"])                 # streaming
    stream.feed_events(events)                                # (obj, role-set) pairs
    stream.feed_events(engine.encode_events(more_events))     # pre-encoded
    stream.verdicts("checking")
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, count
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.engine.batch import (
    OBS_RESULT_KEY,
    PRODUCT_STATE_CAP,
    ColumnarHistorySet,
    EncodedBatch,
    FusedKernel,
    ObjectInterner,
    check_columnar_shard,
    make_shard_task,
)
from repro.engine import vector
from repro.engine.cache import SpecCache
from repro.engine.compiler import CompiledSpec, compile_spec
from repro.engine.diagnostics import (
    EnforcementError,
    EnforcementReport,
    RejectedEvent,
    Violation,
    diagnose,
)
from repro.engine.executor import MIN_SHARD_EVENTS, SerialExecutor, shard_bounds_by_events
from repro.formal.alphabet import RoleSetAlphabet
from repro.formal.nfa import NFA
from repro.obs import enabled as _obs_enabled
from repro.obs import default_registry as _obs_default_registry
from repro.obs.instruments import resolve as _resolve_obs
from repro.obs.spans import TRACER

Symbol = Hashable
ObjectId = Hashable
Event = Tuple[ObjectId, Symbol]

#: Process-unique engine tokens; part of every kernel key so two engines
#: sharing one executor can never be served each other's worker-side
#: kernels (spec *names* alone are not globally unique).
_ENGINE_TOKENS = count()


def _payload_nbytes(payload) -> int:
    """Wire bytes of a shard payload (nested tuples of packed columns)."""
    if isinstance(payload, memoryview):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_nbytes(item) for item in payload)
    return 0


def _as_automaton(spec) -> NFA:
    """Accept an NFA, a DFA, or anything exposing ``.automaton`` (inventories)."""
    if isinstance(spec, NFA):
        return spec
    automaton = getattr(spec, "automaton", None)
    if isinstance(automaton, NFA):
        return automaton
    to_nfa = getattr(spec, "to_nfa", None)
    if callable(to_nfa):
        return to_nfa()
    raise TypeError(f"cannot interpret {type(spec).__name__} as a specification automaton")


@dataclass(frozen=True)
class SpecLintFinding:
    """One registration-time implication finding over a spec set.

    ``kind`` is one of ``"unsatisfiable"`` (the spec's language is empty:
    every object is doomed before its first event), ``"equivalent"`` (two
    specs accept exactly the same histories), ``"redundant"`` (the first
    named spec implies the second: checking both costs kernel width for no
    extra enforcement), or ``"contradictory"`` (no history satisfies both:
    any object checked against the pair is doomed from the start).
    ``witness`` carries a separating or violating word when the lazy search
    produced one.
    """

    kind: str
    specs: Tuple[str, ...]
    detail: str
    witness: Optional[Tuple] = None

    def render(self) -> str:
        names = " + ".join(self.specs)
        return f"[{self.kind}] {names}: {self.detail}"


@dataclass(frozen=True)
class RevalidationReport:
    """What a spec re-registration actually forced a stream to re-check.

    The delta-driven half of preventive enforcement (Decker-style: derive
    the re-check set from the *update*, not the population).  ``changed``
    maps each reset spec to the objects whose component state had moved off
    the spec's initial state -- only those objects carried progress the
    reset discarded; everything else needs no re-validation.  On recording
    streams ``verdicts`` additionally maps each changed object to whether
    its full recorded history satisfies the *new* automaton (one table
    replay per changed object -- the unchanged population is never
    touched).
    """

    specs: Tuple[str, ...]
    changed: Dict[str, Tuple[ObjectId, ...]]
    verdicts: Optional[Dict[str, Dict[ObjectId, bool]]]
    replayed: int


class HistoryCheckerEngine:
    """Compile-once, encode-once, check-many verification of object histories.

    Parameters
    ----------
    executor:
        Shard executor for batch checking; defaults to
        :class:`repro.engine.executor.SerialExecutor`.
    cache_size:
        Capacity of the compiled-spec LRU cache.
    batch_size:
        Histories per shard in :meth:`check_batch` / :meth:`check_batch_all`.
    product_cap:
        Product states per fused-kernel group before specs spill into a new
        group (:data:`repro.engine.batch.PRODUCT_STATE_CAP`).
    kernel:
        Which multi-spec kernel advances encoded columns: ``"fused"`` (the
        pure-Python product kernel), ``"vector"`` (the numpy gather kernel,
        :mod:`repro.engine.vector`; raises when numpy is missing) or
        ``"auto"`` (the default -- vector when numpy imports, silently
        fused otherwise).
    min_shard_events:
        Minimum event mass per process-pool shard
        (:data:`repro.engine.executor.MIN_SHARD_EVENTS`); batches below it
        run serially instead of paying the pool round trip.
    obs:
        Observability wiring (:mod:`repro.obs`).  ``None`` (the default)
        follows the process switch -- the engine is instrumented against
        the process default registry iff :func:`repro.obs.enabled` at
        construction time.  ``True``/``False`` force it on/off regardless
        of the switch; a :class:`repro.obs.metrics.MetricsRegistry`
        instruments this engine against that private registry (per-tenant
        isolation).  Instruments resolve **once**, here: an uninstrumented
        engine's hot paths pay a single ``is not None`` check.
    """

    def __init__(
        self,
        executor=None,
        cache_size: int = 64,
        batch_size: int = 2048,
        product_cap: int = PRODUCT_STATE_CAP,
        kernel: str = "auto",
        min_shard_events: Optional[int] = None,
        obs=None,
    ) -> None:
        if kernel not in ("auto", "fused", "vector"):
            raise ValueError(
                f"kernel must be 'auto', 'fused' or 'vector', not {kernel!r}"
            )
        if kernel == "vector" and not vector.HAVE_NUMPY:
            raise RuntimeError(
                "kernel='vector' needs numpy, which is not installed; install the "
                "repro[fast] extra, or use kernel='auto' to fall back to the fused "
                "kernel"
            )
        self._executor = executor if executor is not None else SerialExecutor()
        self._cache = SpecCache(cache_size)
        self._batch_size = batch_size
        self._product_cap = product_cap
        self._kernel_choice = kernel
        self._min_shard_events = (
            MIN_SHARD_EVENTS if min_shard_events is None else min_shard_events
        )
        self._sources: Dict[str, NFA] = {}
        self._generations: Dict[str, int] = {}
        #: MCL provenance per spec (a ``CompiledConstraint`` with span-anchored
        #: clauses) for specs registered from MCL; drives clause diagnoses.
        self._provenance: Dict[str, object] = {}
        #: The engine-level shared alphabet every batch is encoded against;
        #: append-only, so spec remap arrays and kernels only ever *extend*.
        self._alphabet = RoleSetAlphabet()
        self._kernels = SpecCache(16)
        self._token = next(_ENGINE_TOKENS)
        self._obs = _resolve_obs(obs, _obs_enabled(), _obs_default_registry())
        if self._obs is not None:
            self._bind_obs()

    def _bind_obs(self) -> None:
        """Wire the resolved instruments into the caches and the executor."""
        instruments = self._obs
        instruments.registry.gauge(
            "repro_engine_specs", "Registered specifications"
        ).set_callback(lambda: len(self._sources))
        self._cache.bind_metrics(
            instruments.spec_cache_hits,
            instruments.spec_cache_misses,
            instruments.spec_cache_evictions,
        )
        self._kernels.bind_metrics(*instruments.cache_counters("kernel"))
        bind = getattr(self._executor, "bind_obs", None)
        if bind is not None:
            bind(instruments)

    # ------------------------------------------------------------------ #
    # Spec registry
    # ------------------------------------------------------------------ #
    def add_spec(self, name: str, spec, schema=None, lint: bool = False) -> None:
        """Register (or replace) a named specification.

        ``lint=True`` additionally runs the registration-time implication
        checks (:meth:`lint_specs`) for the new spec against every other
        registered spec and emits one :class:`UserWarning` per finding --
        an unsatisfiable, redundant or contradictory constraint is caught
        before any event flows against it.

        ``spec`` may be an automaton, an inventory, a compiled MCL
        constraint -- or **MCL source text** (a string), in which case
        ``schema`` must be the :class:`repro.model.schema.DatabaseSchema`
        the constraint file is written against; the source's constraint
        named ``name`` is registered (or its only constraint, when it
        defines exactly one).

        Re-registering an existing name bumps the spec's *generation*: the
        stale compiled table is evicted from the cache (the cache key is
        ``(name, generation)``, so a stale entry can never be served even
        across races), and open streams reset their cursors for that spec
        on the next touch -- integer cursor states minted against the old
        table are never interpreted against the new one.
        """
        if isinstance(spec, str):
            provenance = self._compile_mcl_source(name, spec, schema)
            automaton = provenance.automaton
        else:
            automaton = _as_automaton(spec)
            # Compiled MCL constraints carry span-anchored clause provenance
            # that explain() threads into violation reports.
            provenance = spec if getattr(spec, "clauses", None) else None
        generation = self._generations.get(name, 0) + 1
        self._cache.invalidate((name, generation - 1))
        previous = self._provenance.get(name)
        if previous is not None:
            # Clause tables of the outgoing generation can never be served
            # again (their keys embed it); drop them so dead entries do not
            # squat in the LRU evicting live specs.
            for clause in previous.clauses:
                self._cache.invalidate((name, generation - 1, "clause", clause.index))
        self._sources[name] = automaton
        self._generations[name] = generation
        if provenance is not None:
            self._provenance[name] = provenance
        else:
            self._provenance.pop(name, None)
        if lint:
            for finding in self.lint_specs():
                if name in finding.specs:
                    warnings.warn(
                        f"spec lint: {finding.render()}", UserWarning, stacklevel=2
                    )

    @staticmethod
    def _compile_mcl_source(name: str, text: str, schema):
        from repro.spec import compile_constraint

        if schema is None:
            raise TypeError(
                "registering MCL source text needs the database schema it is written "
                "against: add_spec(name, text, schema=...)"
            )
        return compile_constraint(text, schema, name=name, fallback_to_single=True)

    def spec_names(self) -> Tuple[str, ...]:
        """Every registered spec name, in registration order."""
        return tuple(self._sources)

    def generation(self, name: str) -> int:
        """How many times ``name`` has been (re-)registered (0 when unknown)."""
        return self._generations.get(name, 0)

    @property
    def alphabet(self) -> RoleSetAlphabet:
        """The shared role-set alphabet all columnar encoding runs against."""
        return self._alphabet

    def compiled(self, name: str) -> CompiledSpec:
        """The table-compiled form of one spec (cached, recompiled on eviction).

        The spec's remap array is kept extended to the shared alphabet's
        current version, so a cached table can always run encoded columns.
        """
        source = self._sources.get(name)
        if source is None:
            raise KeyError(f"unknown specification {name!r}; registered: {sorted(self._sources)}")
        key = (name, self._generations[name])
        spec = self._cache.get_or_compile(key, lambda: compile_spec(source, self._alphabet))
        spec.ensure_remap(self._alphabet)
        return spec

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters of the spec-compilation cache."""
        return self._cache.stats()

    def provenance(self, name: str) -> Optional[object]:
        """The MCL constraint ``name`` was registered from, when it was."""
        return self._provenance.get(name)

    def admissible(self, name: str, symbol, state: Optional[int] = None) -> bool:
        """Whether admitting ``symbol`` keeps acceptance of ``name`` possible.

        O(1) -- one symbol-encode plus one admissibility-mask read on the
        compiled table (:meth:`repro.engine.compiler.CompiledSpec.
        admissible`); no replay.  ``state`` defaults to the spec's initial
        state (the empty-history question); streaming sessions answer the
        per-object form via :meth:`StreamChecker.admissible`.
        """
        spec = self.compiled(name)
        return spec.admissible(spec.initial if state is None else state, symbol)

    def lint_specs(self, names: Optional[Iterable[str]] = None) -> Tuple[SpecLintFinding, ...]:
        """Registration-time implication checks over a spec set.

        Runs the lazy decision procedures of :mod:`repro.formal.lazy` over
        every pair of the selected specs (plus a per-spec emptiness check)
        and reports constraints that are **unsatisfiable** (empty language),
        **equivalent**, **redundant** (one implies the other) or
        **contradictory** (empty intersection) -- the conditions under which
        preventive enforcement would refuse every event, or pay kernel
        width for no enforcement.  Pairs with an unsatisfiable side are not
        re-reported.  ``add_spec(..., lint=True)`` surfaces the findings
        touching the new spec as warnings at registration time.
        """
        from repro.formal import lazy

        selected = tuple(names) if names is not None else self.spec_names()
        for name in selected:
            if name not in self._sources:
                raise KeyError(f"unknown specification {name!r}")
        findings: List[SpecLintFinding] = []
        empty: Dict[str, bool] = {}
        for name in selected:
            outcome = lazy.emptiness(self._sources[name])
            empty[name] = outcome.holds
            if outcome.holds:
                findings.append(
                    SpecLintFinding(
                        "unsatisfiable",
                        (name,),
                        "the spec accepts no history at all; every object is "
                        "doomed before its first event",
                    )
                )
        for i, a in enumerate(selected):
            if empty[a]:
                continue
            for b in selected[i + 1 :]:
                if empty[b]:
                    continue
                forward = lazy.containment(self._sources[a], self._sources[b])
                backward = lazy.containment(self._sources[b], self._sources[a])
                if forward.holds and backward.holds:
                    findings.append(
                        SpecLintFinding(
                            "equivalent",
                            (a, b),
                            "the two specs accept exactly the same histories; "
                            "one of them is redundant",
                        )
                    )
                elif forward.holds:
                    findings.append(
                        SpecLintFinding(
                            "redundant",
                            (a, b),
                            f"every history satisfying {a!r} satisfies {b!r}; "
                            f"checking {b!r} alongside adds no enforcement",
                            witness=backward.witness,
                        )
                    )
                elif backward.holds:
                    findings.append(
                        SpecLintFinding(
                            "redundant",
                            (b, a),
                            f"every history satisfying {b!r} satisfies {a!r}; "
                            f"checking {a!r} alongside adds no enforcement",
                            witness=forward.witness,
                        )
                    )
                else:
                    intersection = lazy.intersection_emptiness(
                        self._sources[a], self._sources[b]
                    )
                    if intersection.holds:
                        findings.append(
                            SpecLintFinding(
                                "contradictory",
                                (a, b),
                                "no history satisfies both specs; any object "
                                "checked against the pair is doomed from the "
                                "start",
                            )
                        )
        return tuple(findings)

    def _clause_tables(self, name: str):
        """``(clause, compiled table)`` pairs for a spec's MCL conjuncts.

        Clause tables ride the same LRU cache as the specs themselves, keyed
        by ``(name, generation, "clause", index)`` -- evictable, rebuilt
        deterministically, never stale across re-registration.
        """
        constraint = self._provenance.get(name)
        if constraint is None:
            return ()
        generation = self._generations[name]
        pairs = []
        for clause in constraint.clauses:
            key = (name, generation, "clause", clause.index)
            table = self._cache.get_or_compile(key, lambda c=clause: compile_spec(c.automaton))
            pairs.append((clause, table))
        return tuple(pairs)

    # ------------------------------------------------------------------ #
    # Violation diagnostics
    # ------------------------------------------------------------------ #
    def explain(self, name: str, history, object_id=None) -> Optional[Violation]:
        """Why ``history`` fails spec ``name`` -- or ``None`` when it passes.

        The report (:class:`repro.engine.diagnostics.Violation`) carries the
        first fatal event, a minimal shrunk counterexample or a shortest
        conforming completion, and -- for specs registered from MCL -- the
        source span of every clause whose sub-automaton rejected.
        """
        spec = self.compiled(name)
        violation = diagnose(
            name,
            spec,
            self._sources[name],
            history,
            object_id=object_id,
            clauses=self._clause_tables(name),
        )
        if violation is not None and self._obs is not None:
            self._obs.violations_total.inc()
        return violation

    def _history_of(self, histories, index: int) -> Tuple[Symbol, ...]:
        """One history out of a batch, decoding columnar sets via the alphabet."""
        if isinstance(histories, ColumnarHistorySet):
            offsets = histories.offsets
            symbol = self._alphabet.symbol
            return tuple(
                symbol(code) for code in histories.code_list[offsets[index] : offsets[index + 1]]
            )
        return tuple(histories[index])

    # ------------------------------------------------------------------ #
    # Columnar encoding
    # ------------------------------------------------------------------ #
    def encode_events(
        self, events: Iterable[Event], objects: Optional[ObjectInterner] = None
    ) -> EncodedBatch:
        """Encode an interleaved event batch once against the shared alphabet."""
        return EncodedBatch.from_events(events, self._alphabet, objects)

    def encode_histories(self, histories: Sequence[Sequence[Symbol]]) -> ColumnarHistorySet:
        """Encode whole histories once; reusable across every registered spec."""
        return ColumnarHistorySet.from_histories(histories, self._alphabet)

    def _kernel_kind(self) -> str:
        """Which kernel kind the engine's ``kernel=`` choice resolves to now.

        ``"auto"`` re-reads :data:`repro.engine.vector.HAVE_NUMPY` on every
        resolution, so the no-numpy fallback is decided by the environment,
        not frozen at construction.
        """
        if self._kernel_choice == "auto":
            return "vector" if vector.HAVE_NUMPY else "fused"
        return self._kernel_choice

    def _kernel_for(self, names: Sequence[str]) -> FusedKernel:
        """The multi-spec kernel over ``names`` (cached by generations, alphabet
        and kind)."""
        specs = [(name, self.compiled(name)) for name in names]
        kind = self._kernel_kind()
        key = (
            self._token,
            tuple((name, self._generations[name]) for name in names),
            len(self._alphabet),
            self._product_cap,
            kind,
        )
        kernel = self._kernels.get(key)
        if kernel is None:
            factory = vector.VectorKernel if kind == "vector" else FusedKernel
            kernel = factory(specs, len(self._alphabet), self._product_cap, key=key)
            if self._obs is not None:
                kernel.obs = self._obs.kernel(kernel.kind)
            self._kernels.put(key, kernel)
        return kernel

    # ------------------------------------------------------------------ #
    # Batch checking
    # ------------------------------------------------------------------ #
    def check_batch(
        self,
        name: str,
        histories: Sequence[Sequence[Symbol]],
        executor=None,
        explain: bool = False,
    ):
        """The membership verdict of every history, in input order.

        With ``explain=True`` the return value is ``(verdicts, violations)``:
        one :class:`repro.engine.diagnostics.Violation` per failing history
        (``object_id`` set to its batch index), in batch order.
        """
        verdicts = self.check_batch_all(histories, [name], executor=executor)[name]
        if not explain:
            return verdicts
        violations = [
            self.explain(name, self._history_of(histories, index), object_id=index)
            for index, verdict in enumerate(verdicts)
            if not verdict
        ]
        return verdicts, violations

    def check_batch_all(
        self,
        histories,
        names: Optional[Iterable[str]] = None,
        executor=None,
    ) -> Dict[str, List[bool]]:
        """Batch verdicts for several specs in one encoded pass.

        ``histories`` may be raw symbol sequences or an already encoded
        :class:`repro.engine.batch.ColumnarHistorySet`.  Histories are
        encoded once, every selected spec is fused into one product kernel,
        and -- with a parallel executor -- shards ship as compact column
        bytes plus ``(name, generation)`` spec references resolved through a
        worker-local compile cache, not pickled tables and frozensets.
        """
        selected = tuple(names) if names is not None else self.spec_names()
        if not selected:
            return {}
        obs = self._obs
        if obs is not None:
            obs.check_batches_total.inc()
        with TRACER.trace("engine.check_batch_all", specs=len(selected)) as span:
            if isinstance(histories, ColumnarHistorySet):
                history_set = histories
                if (
                    history_set.alphabet is not None
                    and history_set.alphabet is not self._alphabet
                ) or history_set.max_code >= len(self._alphabet):
                    raise ValueError(
                        "the encoded history set was built against a different alphabet "
                        "than this engine's; encode with engine.encode_histories"
                    )
            else:
                with TRACER.trace("encode.histories"):
                    history_set = ColumnarHistorySet.from_histories(histories, self._alphabet)
            kernel = self._kernel_for(selected)
            backend = executor if executor is not None else self._executor
            bounds = (
                None
                if isinstance(backend, SerialExecutor)
                else shard_bounds_by_events(
                    history_set.offsets, self._batch_size, self._min_shard_events
                )
            )
            if bounds is None or len(bounds) <= 1:
                with TRACER.trace("kernel.check", kind=kernel.kind):
                    verdicts = kernel.check_history_set(history_set)
                result = {name: verdicts[name] for name in selected}
            else:
                specs = [(name, self.compiled(name)) for name in selected]
                # The shard tasks carry the dispatching span's id (0 for
                # metrics-only) so workers report their span + cache deltas
                # back under OBS_RESULT_KEY; disabled, the wire format is
                # byte-identical to the uninstrumented one.
                token = span.span_id if obs is not None else None
                tasks = [
                    make_shard_task(
                        kernel,
                        specs,
                        kernel.shard_payload(history_set, start, stop),
                        obs_token=token,
                    )
                    for start, stop in bounds
                ]
                if obs is not None:
                    obs.shards_total.inc(len(tasks))
                    obs.shard_payload_bytes.inc(
                        sum(_payload_nbytes(task[2]) for task in tasks)
                    )
                with TRACER.trace("pool.dispatch", shards=len(tasks)) as dispatch:
                    if obs is not None and getattr(backend, "_obs", None) is None:
                        # Per-call backends are not bound at construction the
                        # way the engine's own executor is; time them here.
                        started = perf_counter()
                        results = backend.run(check_columnar_shard, tasks)
                        obs.pool_dispatch_seconds.observe(perf_counter() - started)
                    else:
                        results = backend.run(check_columnar_shard, tasks)
                stitched: Dict[str, List[bool]] = {name: [] for name in selected}
                for piece in results:
                    extra = piece.pop(OBS_RESULT_KEY, None)
                    if extra is not None and obs is not None:
                        self._merge_shard_obs(obs, dispatch, extra)
                    for name in selected:
                        stitched[name].extend(piece[name])
                result = stitched
        if obs is not None:
            for name in selected:
                verdicts = result[name]
                passes = sum(verdicts)
                obs.verdicts_pass.inc(passes)
                obs.verdicts_fail.inc(len(verdicts) - passes)
        return result

    def screen_histories(
        self,
        histories,
        names: Optional[Iterable[str]] = None,
        executor=None,
    ) -> Dict[str, List[Optional[int]]]:
        """Per-spec first-fatal indices for a batch of histories.

        The batch analogue of the ``enforce=True`` gate: for every history
        and every selected spec, the index of the first event after which
        acceptance became impossible -- ``None`` when the history stays
        salvageable throughout, ``-1`` when the spec's language is empty.
        Shares the encode-once/fused-kernel pipeline of
        :meth:`check_batch_all`; with a parallel executor the shards ship
        with a ``"screen"`` mode tag and the per-shard verdicts are
        stitched back **in shard order**, so supervised pools (retries,
        respawns, degraded serial fallback) merge deterministically.
        """
        selected = tuple(names) if names is not None else self.spec_names()
        if not selected:
            return {}
        if isinstance(histories, ColumnarHistorySet):
            history_set = histories
            if (
                history_set.alphabet is not None
                and history_set.alphabet is not self._alphabet
            ) or history_set.max_code >= len(self._alphabet):
                raise ValueError(
                    "the encoded history set was built against a different alphabet "
                    "than this engine's; encode with engine.encode_histories"
                )
        else:
            history_set = ColumnarHistorySet.from_histories(histories, self._alphabet)
        kernel = self._kernel_for(selected)
        backend = executor if executor is not None else self._executor
        bounds = (
            None
            if isinstance(backend, SerialExecutor)
            else shard_bounds_by_events(
                history_set.offsets, self._batch_size, self._min_shard_events
            )
        )
        if bounds is None or len(bounds) <= 1:
            fatal = kernel.fatal_histories(history_set.code_list, history_set.lengths())
            return {name: fatal[name] for name in selected}
        specs = [(name, self.compiled(name)) for name in selected]
        tasks = [
            make_shard_task(
                kernel,
                specs,
                kernel.shard_payload(history_set, start, stop),
                mode="screen",
            )
            for start, stop in bounds
        ]
        results = backend.run(check_columnar_shard, tasks)
        stitched: Dict[str, List[Optional[int]]] = {name: [] for name in selected}
        for piece in results:
            piece.pop(OBS_RESULT_KEY, None)
            for name in selected:
                stitched[name].extend(piece[name])
        return stitched

    @staticmethod
    def _merge_shard_obs(obs, dispatch_span, extra: Dict) -> None:
        """Fold one shard's worker-side observability report into this process.

        Workers ship per-call deltas (this call's cache hit/miss plus the
        cache's current size), never cumulative totals, so re-used pool
        workers are not double-counted.
        """
        if extra["cache_hit"]:
            obs.worker_cache_hits.inc()
        else:
            obs.worker_cache_misses.inc()
        obs.worker_cache_size.set(extra["cache_size"])
        if TRACER.enabled:
            TRACER.attach_remote(dispatch_span, extra["span"])

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def open_stream(
        self,
        names: Optional[Iterable[str]] = None,
        record: bool = False,
        trace_limit: Optional[int] = None,
    ) -> "StreamChecker":
        """A streaming session tracking every object against the given specs.

        ``record=True`` keeps every object's encoded event history alongside
        the dense cursor state, so :meth:`StreamChecker.explain` can produce
        violation reports without the caller re-supplying histories (and
        snapshots carry the traces across restarts).  ``trace_limit`` caps
        each object's recorded trace at its first ``trace_limit`` events --
        the *prefix*, which is what diagnostics replay (a violation's fatal
        event sits on the way into the doomed sink, never after it) -- so a
        hot violating object whose groups have all collapsed onto the sink
        stops growing memory instead of appending unboundedly.
        """
        selected = tuple(names) if names is not None else self.spec_names()
        for name in selected:
            if name not in self._sources:
                raise KeyError(f"unknown specification {name!r}")
        if trace_limit is not None and trace_limit < 1:
            raise ValueError(f"trace_limit must be a positive event count, not {trace_limit!r}")
        if self._obs is not None:
            self._obs.streams_opened.inc()
        return StreamChecker(self, selected, record=record, trace_limit=trace_limit)

    def restore_stream(self, blob: bytes) -> "StreamChecker":
        """Rebuild a streaming session from :meth:`StreamChecker.snapshot` bytes.

        Validates the wire header and every spec's table fingerprint; specs
        re-registered since the snapshot restart from their initial state
        and are listed on the stream's ``reset_on_restore``.  See
        :mod:`repro.engine.snapshot` for the format and the validation
        rules.
        """
        from repro.engine.snapshot import load_stream

        stream = load_stream(self, blob)
        if self._obs is not None:
            self._obs.streams_opened.inc()
        return stream

    def open_durable_stream(
        self,
        directory,
        names: Optional[Iterable[str]] = None,
        record: bool = False,
        checkpoint_every: Optional[int] = 50_000,
        retain: int = 2,
        fsync: bool = False,
    ):
        """A crash-durable streaming session journaling into ``directory``.

        Every fed batch is appended to a write-ahead journal before it is
        applied, and a checkpoint is cut every ``checkpoint_every`` events
        (``None`` = manual :meth:`~repro.engine.journal.DurableStream.
        checkpoint` only).  After a crash, :meth:`recover_stream` on the
        same directory rebuilds the session.  See
        :mod:`repro.engine.journal` for the wire format and guarantees.
        """
        from repro.engine.journal import open_durable

        return open_durable(
            self,
            directory,
            names=names,
            record=record,
            checkpoint_every=checkpoint_every,
            retain=retain,
            fsync=fsync,
        )

    def recover_stream(
        self,
        directory,
        checkpoint_every: Optional[int] = 50_000,
        retain: int = 2,
        fsync: bool = False,
    ):
        """Rebuild a durable streaming session from its journal directory.

        Restores the newest valid checkpoint (corrupt generations fall back
        to retained older ones), replays the journal tail, cleanly
        truncates a torn final record, and returns a live
        :class:`repro.engine.journal.DurableStream` ready to feed.
        """
        from repro.engine.journal import recover

        return recover(
            self,
            directory,
            checkpoint_every=checkpoint_every,
            retain=retain,
            fsync=fsync,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle and introspection
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the engine's executor (process pools included); idempotent.

        Engines are context managers, so pool-backed ones no longer leak
        worker processes on teardown::

            with HistoryCheckerEngine(executor=ProcessPoolShardExecutor()) as engine:
                ...
        """
        close = getattr(self._executor, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "HistoryCheckerEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
    def stats(self) -> Dict[str, object]:
        """One introspection dict: registry sizes, cache counters, kernel kind.

        Always available -- the cache counters live on the caches themselves
        -- and, when this engine is instrumented, ``"metrics"`` additionally
        carries every metric value of the engine's registry
        (:meth:`repro.obs.metrics.MetricsRegistry.to_dict`).
        """
        data: Dict[str, object] = {
            "specs": len(self._sources),
            "kernel": self._kernel_kind(),
            "alphabet_size": len(self._alphabet),
            "spec_cache": self._cache.stats(),
            "kernel_cache": self._kernels.stats(),
            "observability": self._obs is not None,
        }
        executor_stats = getattr(self._executor, "stats", None)
        if executor_stats is not None:
            # A SupervisedExecutor reports its retry/timeout/respawn/
            # quarantine/degrade counters and current degradation state.
            data["fault_tolerance"] = executor_stats()
        else:
            # Dashboards key on the section unconditionally; engines without
            # a supervised executor report the same shape, zeroed.
            from repro.engine.supervisor import zeroed_stats

            data["fault_tolerance"] = zeroed_stats()
        if self._obs is not None:
            data["metrics"] = self._obs.registry.to_dict()
        return data


class StreamChecker:
    """Incremental checking of an interleaved multi-object event stream.

    The session keeps one dense state column per fused-kernel group: object
    ids are interned to dense integers (:class:`repro.engine.batch.
    ObjectInterner`) and each object's entry holds a direct reference to its
    current product-state row, so :meth:`feed_events` advances *every* spec
    with a single subscript chain per event.  Batches may arrive raw (they
    are encoded once against the engine's shared alphabet) or already
    encoded (:class:`repro.engine.batch.EncodedBatch`, e.g. from the
    workload generators).

    The interner's code space can hold ids the session was never fed --
    identity-mode gaps (ids ``0`` and ``9`` make ten slots), and ids of a
    ``reject_batch`` refusal or of a pre-encoded batch that was never fed.
    A per-code **presence** mask, set by one scatter per applied batch,
    records which objects some admitted event actually carried; listings
    (:meth:`objects`, :meth:`verdicts`, :meth:`all_verdicts`), snapshots and
    journal recovery report exactly those, int ids in ascending order.

    Specs are re-resolved through the engine's LRU cache on every batch, so
    compiled tables may be evicted and deterministically recompiled
    mid-stream without disturbing the session.  Re-registering a spec
    (``add_spec`` under an existing name) bumps its generation; on the next
    touch the session rebuilds its kernel, restarts that spec's histories
    from the new automaton's initial state, and keeps every other spec's
    progress -- stale states are never interpreted against a different
    table.
    """

    __slots__ = (
        "_engine",
        "_names",
        "_generations",
        "_interner",
        "_columns",
        "_kernel",
        "_seen",
        "_present",
        "_traces",
        "_trace_marks",
        "_trace_limit",
        "events_seen",
        "reset_on_restore",
        "last_revalidation",
    )

    def __init__(
        self,
        engine: HistoryCheckerEngine,
        names: Tuple[str, ...],
        record: bool = False,
        trace_limit: Optional[int] = None,
    ) -> None:
        self._engine = engine
        self._names = names
        self._generations: Dict[str, int] = {name: engine.generation(name) for name in names}
        self._interner = ObjectInterner()
        self._columns: List[list] = []
        self._kernel: Optional[FusedKernel] = None
        #: Per spec, the dense ids seen since that spec's last reset --
        #: ``None`` meaning "every present object" (the common case, kept
        #: implicit so the hot path never builds per-batch id sets).
        self._seen: Dict[str, Optional[Dict[int, None]]] = {name: None for name in names}
        #: Per dense id, 1 iff an applied batch carried the object; codes
        #: past the end are unfed too.
        self._present = bytearray()
        #: Per-object encoded event traces keyed by dense id (``record=True``
        #: sessions only); objects never fed hold no entry, so a sparse
        #: identity universe costs nothing here.
        self._traces: Optional[Dict[int, List[int]]] = defaultdict(list) if record else None
        #: Per-object cap on recorded trace length (``None`` = unbounded).
        self._trace_limit = trace_limit
        #: Per spec, the per-object trace lengths at that spec's last reset
        #: (absent = 0): diagnostics replay only the trace suffix fed *after*
        #: the reset, so ``explain`` and ``verdict`` always judge the same
        #: events.
        self._trace_marks: Dict[str, Dict[int, int]] = {}
        self.events_seen = 0
        #: Specs reset by the last snapshot restore that built this session.
        self.reset_on_restore: Tuple[str, ...] = ()
        #: The delta report of the last re-registration reset applied to this
        #: session (:class:`RevalidationReport`); ``None`` until one happens.
        self.last_revalidation: Optional[RevalidationReport] = None

    @property
    def spec_names(self) -> Tuple[str, ...]:
        """The specs this session checks against."""
        return self._names

    @property
    def object_interner(self) -> ObjectInterner:
        """The id space of this session (share it to pre-encode batches)."""
        return self._interner

    def _resolve_kernel(self) -> FusedKernel:
        """The current fused kernel, translating states across rebuilds.

        Every call resolves each spec through the engine's compile cache
        (evictions and recompilations stay visible in ``cache_stats``).  A
        changed generation resets that spec's histories and seen set; a
        changed kernel (re-registration, alphabet growth, cache churn)
        carries every other spec's per-object states over by translation.
        """
        engine = self._engine
        reset = []
        for name in self._names:
            generation = engine.generation(name)
            if generation != self._generations[name]:
                self._generations[name] = generation
                reset.append(name)
        if reset and self._kernel is not None:
            # Delta extraction *before* translation discards the old states:
            # only objects that had moved off the reset spec's initial state
            # carried progress worth re-validating.
            self.last_revalidation = self._revalidation_report(reset)
        kernel = engine._kernel_for(self._names)
        if kernel is not self._kernel:
            if self._kernel is None:
                self._columns = kernel.new_columns(len(self._interner))
            else:
                self._columns = kernel.translate_columns(self._kernel, self._columns, reset)
            self._kernel = kernel
        for name in reset:
            self._seen[name] = {}
            if self._traces is not None:
                self._trace_marks[name] = {o: len(trace) for o, trace in self._traces.items()}
        kernel.grow_columns(self._columns, len(self._interner))
        return kernel

    def _revalidation_report(self, reset: List[str]) -> RevalidationReport:
        """The Decker delta of a pending reset: who actually needs re-checking.

        Reads the *old* kernel's columns (the caller has not translated
        yet): an object whose component state for a reset spec still equals
        the spec's initial state carried no progress, so the reset changes
        nothing for it.  On recording sessions, each changed object's full
        recorded trace is replayed once through the **new** table --
        ``replayed`` counts exactly those replays, never the unchanged
        population.
        """
        old_kernel = self._kernel
        engine = self._engine
        decode_object = self._interner.object
        changed: Dict[str, Tuple[ObjectId, ...]] = {}
        verdicts: Optional[Dict[str, Dict[ObjectId, bool]]] = (
            {} if self._traces is not None else None
        )
        replayed = 0
        for name in reset:
            group_index, j = old_kernel.locate[name]
            group = old_kernel.groups[group_index]
            initial = group.decode[group.root[-1]][j]
            states = old_kernel.component_states(self._columns, name)
            moved = [dense for dense, state in enumerate(states) if state != initial]
            changed[name] = tuple(map(decode_object, moved))
            if verdicts is not None:
                spec = engine.compiled(name)  # the incoming generation
                symbol = engine.alphabet.symbol
                traces = self._traces
                per: Dict[ObjectId, bool] = {}
                for dense in moved:
                    trace = traces.get(dense, ())
                    per[decode_object(dense)] = spec.accepts(
                        [symbol(code) for code in trace]
                    )
                    replayed += 1
                verdicts[name] = per
        return RevalidationReport(tuple(reset), changed, verdicts, replayed)

    def _adopt(self, batch: EncodedBatch) -> None:
        """Validate a pre-encoded batch and adopt its id space if fresh."""
        engine_alphabet = self._engine.alphabet
        if batch.alphabet is not None and batch.alphabet is not engine_alphabet:
            raise ValueError(
                "the encoded batch was built against a different alphabet than this "
                "engine's; encode with engine.encode_events (or the engine's .alphabet)"
            )
        if batch.max_code >= len(engine_alphabet):
            raise ValueError(
                "the encoded batch carries symbol codes beyond this engine's alphabet"
            )
        if batch.objects is not self._interner:
            if len(self._interner) == 0:
                self._interner = batch.objects
            else:
                raise ValueError(
                    "the encoded batch uses a different object-id space than this "
                    "stream; encode against stream.object_interner"
                )

    def feed(self, object_id: ObjectId, symbol: Symbol) -> None:
        """Consume a single event."""
        self.feed_events(((object_id, symbol),))

    def feed_events(
        self, events, enforce: bool = False, policy: str = "reject_event"
    ) -> int:
        """Consume a batch of events; returns the batch's event count.

        ``events`` is an iterable of ``(object_id, symbol)`` pairs or an
        :class:`repro.engine.batch.EncodedBatch`.  The batch is encoded (at
        most) once and every spec of the session advances over the encoded
        columns in one fused pass.  Events are counted once per batch --
        also when the session checks zero specs.

        ``enforce=True`` turns the feed into a transactional gate: every
        event is screened against the admissibility masks *before* it is
        applied, and an event whose successor state is doomed for any spec
        of the session is refused.  Under ``policy="reject_event"`` (the
        default) refused events are skipped and the rest of the batch is
        admitted; the return value is an
        :class:`repro.engine.diagnostics.EnforcementReport` -- an ``int``
        counting the *admitted* events, carrying the per-event
        :class:`repro.engine.diagnostics.RejectedEvent` records.  Under
        ``policy="reject_batch"`` the first inadmissible event raises
        :class:`repro.engine.diagnostics.EnforcementError` and the whole
        batch rolls back -- cursor state, traces and ``events_seen`` are
        untouched.  Rejected events are never recorded in traces and (via
        :class:`repro.engine.journal.DurableStream`) never journaled.
        """
        if isinstance(events, EncodedBatch):
            self._adopt(events)
            batch = events
        else:
            batch = EncodedBatch.from_events(events, self._engine.alphabet, self._interner)
        if enforce:
            return self._feed_enforced(batch, policy)
        count = len(batch)
        obs = self._engine._obs
        if obs is not None:
            obs.batches_total.inc()
            obs.events_total.inc(count)
        if self._traces is not None and count:
            self._record_traces(batch)
        if self._names:
            # _resolve_kernel grows the columns to the interner's current
            # size (the encode above already interned any fresh objects).
            kernel = self._resolve_kernel()
            if count:
                kernel.advance_all(self._columns, batch)
        if count:
            self._note_present(batch)
        self.events_seen += count
        return count

    def _record_traces(self, batch: EncodedBatch) -> None:
        """Append a batch's events to the per-object traces, capped at
        ``trace_limit`` events per object (the replayable prefix)."""
        traces = self._traces
        limit = self._trace_limit
        if limit is None:
            for o, c in zip(batch.id_list, batch.code_list):
                traces[o].append(c)
        else:
            for o, c in zip(batch.id_list, batch.code_list):
                trace = traces[o]
                if len(trace) < limit:
                    trace.append(c)

    def _note_present(self, batch: EncodedBatch, refused: Sequence[int] = ()) -> None:
        """Mark the objects an applied batch carried as present.

        One scatter into the presence mask, grown to the interner first.
        ``refused`` lists the batch positions the enforcement gate refused:
        those events carried nothing.  Specs reset since the session began
        also fold the carried objects into their seen sets.
        """
        present = self._present
        missing = len(self._interner) - len(present)
        if missing > 0:
            present.extend(bytes(missing))
        if vector.HAVE_NUMPY:
            carried = vector.mark_present(present, batch, refused)
        else:
            carried = batch.id_list
            if len(refused):
                skip = set(refused)
                carried = [o for p, o in enumerate(carried) if p not in skip]
            for o in carried:
                present[o] = 1
        partial = [seen for seen in self._seen.values() if seen is not None]
        if partial:
            carried = dict.fromkeys(carried if isinstance(carried, list) else carried.tolist())
            for seen in partial:
                seen.update(carried)

    def _feed_enforced(self, batch: EncodedBatch, policy: str, pre_commit=None):
        """The transactional gate behind ``feed_events(..., enforce=True)``.

        Screen-and-advance runs on *copies* of the cursor columns; nothing
        -- columns, traces, seen sets, ``events_seen``, the WAL hook -- is
        touched until the batch's verdict is in, so a ``reject_batch``
        refusal leaves the session exactly as it was.  ``pre_commit`` (the
        durable stream's journal append) runs with the admitted sub-batch
        after screening but before the state commit: the WAL orders strictly
        ahead of the state it covers and holds **admitted events only**.
        """
        if policy not in ("reject_event", "reject_batch"):
            raise ValueError(
                "enforcement policy must be 'reject_event' or 'reject_batch', "
                f"not {policy!r}"
            )
        count = len(batch)
        obs = self._engine._obs
        if obs is not None:
            obs.batches_total.inc()
            obs.events_total.inc(count)
        if not self._names:
            # Nothing to enforce against: the gate admits everything.
            if pre_commit is not None:
                pre_commit(batch)
            if count:
                if self._traces is not None:
                    self._record_traces(batch)
                self._note_present(batch)
            self.events_seen += count
            return EnforcementReport(count, (), policy)
        kernel = self._resolve_kernel()
        if not count:
            if pre_commit is not None:
                pre_commit(batch)
            return EnforcementReport(0, (), policy)
        copies, rejected = kernel.advance_all_enforced(self._columns, batch)
        n_rejected = len(rejected)
        if n_rejected:
            if obs is not None:
                obs.enforce_rejections.inc(n_rejected)
            if policy == "reject_batch":
                records = self._rejection_records(kernel, batch, rejected.records(1))
                raise EnforcementError(records[0], policy)
            if self._traces is None:
                # Nothing mutable feeds the records (no trace prefixes), so
                # defer building them until someone reads report.rejected.
                make = self._make_rejected

                def records():
                    return [
                        make(kernel, p, o, c, states, None)
                        for p, o, c, states in rejected.records()
                    ]

            else:
                # Trace prefixes must be captured before the commit below
                # appends this batch's admitted events to them.
                records = self._rejection_records(kernel, batch, rejected.records())
            if pre_commit is None and self._traces is None:
                # Nothing consumes the admitted sub-batch (no WAL to append,
                # no traces to extend), so skip assembling it: commit the
                # screened columns and mark presence straight off the batch,
                # minus the refused positions.  An object whose every event
                # was refused is not present -- exactly as in a journaled or
                # recording session, which only ever sees the admitted events.
                self._columns = copies
                n_admitted = count - n_rejected
                self._note_present(batch, rejected.positions)
                self.events_seen += n_admitted
                return EnforcementReport(n_admitted, records, policy, rejections=n_rejected)
            # Assemble the admitted sub-batch from the runs between rejected
            # positions (position-sorted): slice-extends keep this
            # O(#rejections) list operations, not O(#events) Python steps.
            id_list, code_list = batch.id_list, batch.code_list
            admitted_ids, admitted_codes = [], []
            previous = 0
            for p in rejected.positions:
                admitted_ids.extend(id_list[previous:p])
                admitted_codes.extend(code_list[previous:p])
                previous = p + 1
            admitted_ids.extend(id_list[previous:])
            admitted_codes.extend(code_list[previous:])
            admitted = EncodedBatch(
                admitted_ids,
                admitted_codes,
                self._interner,
                batch.alphabet,
                max_code=batch.max_code,
            )
        else:
            records = []
            admitted = batch
        if pre_commit is not None:
            pre_commit(admitted)
        self._columns = copies
        n_admitted = len(admitted)
        if n_admitted:
            if self._traces is not None:
                self._record_traces(admitted)
            self._note_present(admitted)
        self.events_seen += n_admitted
        return EnforcementReport(n_admitted, records, policy, rejections=n_rejected)

    def _rejection_records(self, kernel, batch: EncodedBatch, raw) -> List[RejectedEvent]:
        """Build :class:`RejectedEvent` records for screened-out events.

        On recording sessions each record captures the encoded prefix the
        refused event would have extended -- the stored pre-batch trace plus
        the object's *admitted* in-batch events before the rejection -- so
        its (lazy) ``violation`` replays exactly the history the gate
        refused to create.  Non-recording sessions cannot reconstruct
        pre-batch history; their records answer ``violation = None``.
        """
        records: List[RejectedEvent] = []
        if self._traces is None:
            for p, o, c, states in raw:
                records.append(self._make_rejected(kernel, p, o, c, states, None))
            return records
        traces = self._traces
        rejected_at = {r[0]: r for r in raw}
        inbatch: Dict[int, List[int]] = {}
        remaining = len(rejected_at)
        for p, (o, c) in enumerate(zip(batch.id_list, batch.code_list)):
            r = rejected_at.get(p)
            if r is None:
                inbatch.setdefault(o, []).append(c)
                continue
            codes = tuple(traces.get(o, ())) + tuple(inbatch.get(o, ())) + (c,)
            records.append(self._make_rejected(kernel, *r, codes))
            remaining -= 1
            if not remaining:
                break
        return records

    def _make_rejected(self, kernel, p, o, c, states, codes) -> RejectedEvent:
        engine = self._engine
        object_id = self._interner.object(o)
        sym = engine.alphabet.symbol(c)
        if codes is None:
            factory = None
        else:
            names = self._names
            marks = self._trace_marks

            def factory():
                blocked = kernel.blocking_specs(states, c)
                spec_name = blocked[0] if blocked else names[0]
                mark = marks.get(spec_name)
                start = mark.get(o, 0) if mark is not None else 0
                symbol = engine.alphabet.symbol
                history = tuple(symbol(code) for code in codes[start:])
                return engine.explain(spec_name, history, object_id=object_id)

        return RejectedEvent(p, object_id, sym, factory, kernel, states, c)

    def admissible(
        self, object_id: ObjectId, symbol: Symbol, name: Optional[str] = None
    ) -> bool:
        """Whether feeding ``(object_id, symbol)`` now would be admitted.

        O(1) -- one symbol encode plus one successor/``alive`` flag read per
        kernel group, no replay: exactly the screen ``enforce=True`` applies
        per event.  ``name`` restricts the question to one spec of the
        session; by default the event must keep *every* spec non-doomed.
        Unknown objects are judged from the initial state; symbols the
        engine has never encoded are never admissible.
        """
        if name is not None and name not in self._names:
            raise KeyError(f"spec {name!r} is not checked by this stream; have {self._names}")
        kernel = self._resolve_kernel()
        code = self._engine.alphabet.encode(symbol)
        dense = self._interner.code_of(object_id)
        return kernel.admissible_code(self._columns, dense, code, only=name)

    def doomed(self, name: str, object_id: ObjectId) -> bool:
        """Whether one object can no longer satisfy one spec (no continuation
        of its history is accepted) -- the state the ``enforce=True`` gate
        refuses to enter."""
        if name not in self._names:
            raise KeyError(f"spec {name!r} is not checked by this stream; have {self._names}")
        kernel = self._resolve_kernel()
        group_index, j = kernel.locate[name]
        dense = self._interner.code_of(object_id)
        state = kernel.state_of(self._columns, group_index, dense)
        return bool(kernel.groups[group_index].spec_doomed[j][state])

    def _seen_codes(self, name: str) -> Iterable[int]:
        """The dense ids tracked for one spec: the present ones, ascending,
        unless the spec was reset (then those seen since, in first-seen
        order).  A ``range`` when every interned slot is present."""
        seen = self._seen[name]
        if seen is not None:
            return seen
        present = self._present
        if not present.count(0):
            return range(len(present))
        return list(compress(range(len(present)), present))

    def objects(self, name: Optional[str] = None) -> Tuple[ObjectId, ...]:
        """The objects fed so far (for one spec, or the first).

        Only objects some admitted event carried are listed; int ids come in
        ascending order, other ids in order of first sight.
        """
        selected = name if name is not None else self._names[0]
        return tuple(map(self._interner.object, self._seen_codes(selected)))

    def verdict(self, name: str, object_id: ObjectId) -> bool:
        """Whether one object's history so far satisfies one spec."""
        kernel = self._resolve_kernel()
        group_index, j = kernel.locate[name]
        dense = self._interner.code_of(object_id)
        state_index = kernel.state_of(self._columns, group_index, dense)
        return kernel.groups[group_index].accepting[j][state_index] == 1

    def verdicts(self, name: str) -> Dict[ObjectId, bool]:
        """Per-object verdicts for one spec."""
        kernel = self._resolve_kernel()
        dense = kernel.verdicts_of(name, self._columns, self._seen_codes(name))
        decode = self._interner.object
        return {decode(code): verdict for code, verdict in dense.items()}

    def all_verdicts(self) -> Dict[str, Dict[ObjectId, bool]]:
        """Per-object verdicts for every spec of the session."""
        return {name: self.verdicts(name) for name in self._names}

    # ------------------------------------------------------------------ #
    # Diagnostics and durability
    # ------------------------------------------------------------------ #
    @property
    def recording(self) -> bool:
        """Whether the session keeps per-object event traces for explain()."""
        return self._traces is not None

    def history(self, object_id: ObjectId) -> Tuple[Symbol, ...]:
        """One object's full recorded event history (``record=True`` sessions)."""
        if self._traces is None:
            raise ValueError(
                "this stream does not record histories; open it with "
                "open_stream(names, record=True) or pass history= to explain()"
            )
        trace = self._traces.get(self._interner.code_of(object_id), ())
        symbol = self._engine.alphabet.symbol
        return tuple(symbol(code) for code in trace)

    def _spec_history(self, name: str, object_id: ObjectId) -> Tuple[Symbol, ...]:
        """The recorded trace suffix one spec's cursor has actually consumed.

        A spec reset (re-registration, fingerprint mismatch on restore)
        restarts that spec's cursors but not the per-object traces; the
        reset marks slice the trace so diagnostics judge exactly the events
        the verdict machinery judged.
        """
        if self._traces is None:
            raise ValueError(
                "this stream does not record histories; open it with "
                "open_stream(names, record=True) or pass history= to explain()"
            )
        dense = self._interner.code_of(object_id)
        trace = self._traces.get(dense, ())
        marks = self._trace_marks.get(name)
        start = marks.get(dense, 0) if marks is not None else 0
        symbol = self._engine.alphabet.symbol
        return tuple(symbol(code) for code in trace[start:])

    def explain(self, name: str, object_id: ObjectId, history=None) -> Optional[Violation]:
        """Why ``object_id``'s history fails spec ``name`` (``None`` if it passes).

        The history comes from the session's recorded trace
        (``record=True``), unless the caller supplies one explicitly --
        sessions that do not record cannot reconstruct histories from their
        integer cursor state alone.  After a spec reset only the events fed
        since the reset are judged, keeping ``explain`` consistent with
        :meth:`verdict`.
        """
        if name not in self._names:
            raise KeyError(f"spec {name!r} is not checked by this stream; have {self._names}")
        if history is None:
            self._resolve_kernel()  # apply pending resets so marks are current
            history = self._spec_history(name, object_id)
        return self._engine.explain(name, history, object_id=object_id)

    def explain_all(self, name: str) -> List[Violation]:
        """Violation reports for every currently failing object of one spec."""
        return [
            violation
            for object_id, verdict in self.verdicts(name).items()
            if not verdict
            for violation in (self.explain(name, object_id),)
            if violation is not None
        ]

    def snapshot(self) -> bytes:
        """Serialize the session -- object ids, cursor columns, traces -- to
        bytes that :meth:`HistoryCheckerEngine.restore_stream` rebuilds from,
        in this process or after a restart (:mod:`repro.engine.snapshot`).
        """
        from repro.engine.snapshot import dump_stream

        return dump_stream(self)


__all__ = [
    "HistoryCheckerEngine",
    "RevalidationReport",
    "SpecLintFinding",
    "StreamChecker",
]
