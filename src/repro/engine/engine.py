"""The streaming history-checker engine.

:class:`HistoryCheckerEngine` is the scale entry point of the package: it
checks large batches of object histories -- and unbounded event streams --
against named migration specifications.  Specs are registered once as
automata, inventories, compiled MCL constraints or MCL source text
(:mod:`repro.spec`) and compiled into table runners
(:mod:`repro.engine.compiler`) on first use, once per registration.

Since the columnar pipeline (:mod:`repro.engine.batch`) the engine's native
interchange format is *encoded columns*: every event batch and history set
is encoded **once** against the engine's shared
:class:`repro.formal.alphabet.RoleSetAlphabet`, and all registered specs are
fused into the product kernel of :mod:`repro.engine.vector`, which advances
a batch with numpy gathers.

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
from itertools import compress
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import ColumnarHistorySet, EncodedBatch, ObjectInterner
from repro.engine.cache import SpecCache
from repro.engine.compiler import CompiledSpec, compile_spec
from repro.engine.diagnostics import (
    EnforcementError,
    EnforcementReport,
    RejectedEvent,
    Violation,
    diagnose,
)
from repro.engine.vector import (
    PRODUCT_STATE_CAP,
    VectorKernel,
    check_batch,
    check_history_columns,
    mark_present,
)
from repro.formal.alphabet import RoleSetAlphabet
from repro.formal.nfa import NFA
from repro.obs import enabled as _obs_enabled
from repro.obs import default_registry as _obs_default_registry
from repro.obs.instruments import resolve as _resolve_obs
from repro.obs.spans import TRACER

Symbol = Hashable
ObjectId = Hashable
Event = Tuple[ObjectId, Symbol]

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
    product_cap:
        Product states per kernel group before specs spill into a new group
        (:data:`repro.engine.vector.PRODUCT_STATE_CAP`).
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

    def __init__(self, product_cap: int = PRODUCT_STATE_CAP, obs=None) -> None:
        self._product_cap = product_cap
        self._sources: Dict[str, NFA] = {}
        self._generations: Dict[str, int] = {}
        #: MCL provenance per spec (a ``CompiledConstraint`` with span-anchored
        #: clauses) for specs registered from MCL; drives clause diagnoses.
        self._provenance: Dict[str, object] = {}
        #: The engine-level shared alphabet every batch is encoded against;
        #: append-only, so spec remap arrays and kernels only ever *extend*.
        self._alphabet = RoleSetAlphabet()
        #: Compiled tables of the registered generations, keyed
        #: ``(name, generation)``, clause tables ``(name, generation,
        #: "clause", index)``; each compiles on first use.
        self._tables: Dict[Tuple, CompiledSpec] = {}
        #: Kernels by spec names, their generations and the alphabet size --
        #: bounded, because every alphabet growth keys a new one.
        self._kernels = SpecCache(16)
        self._obs = _resolve_obs(obs, _obs_enabled(), _obs_default_registry())
        if self._obs is not None:
            self._bind_obs()

    def _bind_obs(self) -> None:
        """Wire the resolved instruments into the kernel cache."""
        instruments = self._obs
        instruments.registry.gauge(
            "repro_engine_specs", "Registered specifications"
        ).set_callback(lambda: len(self._sources))
        self._kernels.bind_metrics(*instruments.cache_counters("kernel"))

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
        outgoing generation's compiled tables (clause tables included) are
        dropped -- their keys embed the generation, so none could be served
        again -- and open streams reset their cursors for that spec on the
        next touch: integer cursor states minted against the old table are
        never interpreted against the new one.  The new table compiles on
        first use, not here, because compiling interns the spec's symbols
        into the shared alphabet.
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
        stale = (name, generation - 1)
        # Walk a copy: a compile in another thread may insert meanwhile.
        self._tables = {k: t for k, t in list(self._tables.items()) if k[:2] != stale}
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
        """The table-compiled form of one spec, compiled on first use of its
        generation and kept until the next re-registration.

        The spec's remap array is kept extended to the shared alphabet's
        current version, so the table can always run encoded columns.
        """
        key = (name, self._generations.get(name))
        spec = self._tables.get(key)
        if spec is None:
            source = self._sources.get(name)
            if source is None:
                raise KeyError(
                    f"unknown specification {name!r}; registered: {sorted(self._sources)}"
                )
            spec = self._tables[key] = compile_spec(source, self._alphabet)
        spec.ensure_remap(self._alphabet)
        return spec

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

        Clause tables sit beside the spec's own table, keyed by ``(name,
        generation, "clause", index)``: compiled on first use, dropped with
        their generation on re-registration.
        """
        constraint = self._provenance.get(name)
        if constraint is None:
            return ()
        generation = self._generations[name]
        pairs = []
        for clause in constraint.clauses:
            key = (name, generation, "clause", clause.index)
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = compile_spec(clause.automaton)
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

    def _kernel_for(self, names: Tuple[str, ...]) -> VectorKernel:
        """The multi-spec kernel over ``names``, cached by the names, their
        generations and the alphabet size.

        The key compiles nothing.  A miss resolves the tables -- an unknown
        name raises there, and a first compile may grow the alphabet -- and
        files the kernel under the alphabet size it was built for.
        """
        generations = tuple(map(self._generations.get, names))
        kernel = self._kernels.get((names, generations, len(self._alphabet)))
        if kernel is None:
            specs = [(name, self.compiled(name)) for name in names]
            width = len(self._alphabet)
            kernel = VectorKernel(specs, width, self._product_cap)
            if self._obs is not None:
                kernel.obs = self._obs.kernel
            self._kernels.put((names, generations, width), kernel)
        return kernel

    def _history_set(self, histories) -> ColumnarHistorySet:
        """``histories`` encoded once, or a pre-encoded set checked.

        A :class:`repro.engine.batch.ColumnarHistorySet` must come from this
        engine's alphabet (or bare columns), have offsets that start at 0,
        never decrease and end at its code count, and carry only codes the
        alphabet has handed out; otherwise ``ValueError`` names the first
        bad history or code position, before any kernel work.
        """
        if not isinstance(histories, ColumnarHistorySet):
            with TRACER.trace("encode.histories"):
                return ColumnarHistorySet.from_histories(histories, self._alphabet)
        if histories.alphabet is not None and histories.alphabet is not self._alphabet:
            raise ValueError(
                "the encoded history set was built against a different alphabet "
                "than this engine's; encode with engine.encode_histories"
            )
        check_history_columns(histories, len(self._alphabet))
        return histories

    # ------------------------------------------------------------------ #
    # Batch checking
    # ------------------------------------------------------------------ #
    def check_batch(
        self,
        name: str,
        histories: Sequence[Sequence[Symbol]],
        explain: bool = False,
    ):
        """The membership verdict of every history, in input order.

        With ``explain=True`` the return value is ``(verdicts, violations)``:
        one :class:`repro.engine.diagnostics.Violation` per failing history
        (``object_id`` set to its batch index), in batch order.
        """
        verdicts = self.check_batch_all(histories, [name])[name]
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
    ) -> Dict[str, List[bool]]:
        """Batch verdicts for several specs in one encoded pass.

        ``histories`` may be raw symbol sequences or an already encoded
        :class:`repro.engine.batch.ColumnarHistorySet`.  Histories are
        encoded once and every selected spec is fused into one product
        kernel, which checks the whole set in-process.
        """
        selected = tuple(names) if names is not None else self.spec_names()
        if not selected:
            return {}
        obs = self._obs
        if obs is not None:
            obs.check_batches_total.inc()
        with TRACER.trace("engine.check_batch_all", specs=len(selected)):
            history_set = self._history_set(histories)
            kernel = self._kernel_for(selected)
            with TRACER.trace("kernel.check"):
                verdicts = kernel.check_history_set(history_set)
            result = {name: verdicts[name] for name in selected}
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
    ) -> Dict[str, List[Optional[int]]]:
        """Per-spec first-fatal indices for a batch of histories.

        The batch analogue of the ``enforce=True`` gate: for every history
        and every selected spec, the index of the first event after which
        acceptance became impossible (``int``) -- ``None`` when the history
        stays salvageable throughout, ``-1`` when the spec's language is
        empty.  Shares the encode-once pipeline, the boundary checks and the
        kernel of :meth:`check_batch_all`; the kernel reads the set's array
        columns in place and runs the same rounds as a check
        (:meth:`repro.engine.vector.VectorKernel.fatal_histories`), moving
        the kernel counters as a check does and its own screen counter, not
        the check and verdict counters; traced as ``engine.screen_histories``.
        """
        selected = tuple(names) if names is not None else self.spec_names()
        if not selected:
            return {}
        if self._obs is not None:
            self._obs.screen_batches_total.inc()
        with TRACER.trace("engine.screen_histories", specs=len(selected)):
            history_set = self._history_set(histories)
            kernel = self._kernel_for(selected)
            with TRACER.trace("kernel.screen"):
                fatal = kernel.fatal_histories(history_set.codes, history_set.offsets)
        return {name: fatal[name] for name in selected}

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
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """One introspection dict: registry sizes and kernel-cache counters.

        Always available -- the counters live on the kernel cache itself --
        and, when this engine is instrumented, ``"metrics"`` additionally
        carries every metric value of the engine's registry
        (:meth:`repro.obs.metrics.MetricsRegistry.to_dict`).
        """
        data: Dict[str, object] = {
            "specs": len(self._sources),
            "alphabet_size": len(self._alphabet),
            "kernel_cache": self._kernels.stats(),
            "observability": self._obs is not None,
        }
        if self._obs is not None:
            data["metrics"] = self._obs.registry.to_dict()
        return data


class StreamChecker:
    """Incremental checking of an interleaved multi-object event stream.

    The session keeps one dense state column per kernel group: object ids
    are interned to dense integers (:class:`repro.engine.batch.
    ObjectInterner`) and each object's entry holds the index of its current
    product state, so :meth:`feed_events` advances *every* spec with one
    gather per peel round (:mod:`repro.engine.vector`).  Batches may arrive
    raw (they are encoded once against the engine's shared alphabet) or
    already encoded (:class:`repro.engine.batch.EncodedBatch`, e.g. from
    the workload generators); a pre-encoded batch is checked before it
    touches anything (:meth:`feed_events`).

    The interner's code space can hold ids the session was never fed --
    identity-mode gaps (ids ``0`` and ``9`` make ten slots), and ids of a
    ``reject_batch`` refusal or of a pre-encoded batch that was never fed.
    A per-code **presence** mask, set by one scatter per applied batch,
    records which objects some admitted event actually carried; listings
    (:meth:`objects`, :meth:`verdicts`, :meth:`all_verdicts`), snapshots and
    journal recovery report exactly those, int ids in ascending order.

    Each touch compares the session's spec generations and the engine's
    alphabet size with those its kernel was built for, and resolves a new
    kernel only when one differs.  Re-registering a spec (``add_spec`` under
    an existing name) bumps its generation; on the next touch the session
    rebuilds its kernel, restarts that spec's histories from the new
    automaton's initial state, and keeps every other spec's progress --
    stale states are never interpreted against a different table.
    """

    __slots__ = (
        "_engine",
        "_names",
        "_generations",
        "_interner",
        "_columns",
        "_kernel",
        "_built_for",
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
        #: Per spec, the generation the session's states were minted against.
        self._generations = tuple(map(engine._generations.get, names))
        self._interner = ObjectInterner()
        self._columns: List = []
        self._kernel: Optional[VectorKernel] = None
        #: ``(generations, alphabet size)`` the kernel was resolved for.
        self._built_for: Optional[Tuple] = None
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

    def _resolve_kernel(self) -> VectorKernel:
        """The current kernel, carrying states across rebuilds.

        One compare settles a touch: while neither a spec generation nor
        the engine's alphabet size has moved since the kernel was resolved,
        the kernel stands and the engine is not asked.  Otherwise a changed
        generation resets that spec's histories and seen set, and a changed
        kernel (re-registration, alphabet growth) carries every other
        spec's per-object states over, with the previous kernel's groups as
        :meth:`~repro.engine.vector.VectorKernel.carry_columns` sources: one
        ``ensure_state`` per distinct state.
        """
        engine = self._engine
        generations = tuple(map(engine._generations.get, self._names))
        if (generations, len(engine._alphabet)) != self._built_for:
            reset = [
                name
                for name, old, new in zip(self._names, self._generations, generations)
                if old != new
            ]
            self._generations = generations
            if reset and self._kernel is not None:
                # Delta extraction *before* the carry discards the old
                # states: only objects that had moved off the reset spec's
                # initial state carried progress worth re-validating.
                self.last_revalidation = self._revalidation_report(reset)
            kernel = engine._kernel_for(self._names)
            if kernel is not self._kernel:
                if self._kernel is None:
                    self._columns = kernel.new_columns(len(self._interner))
                else:
                    sources = [
                        (group.names, group.decode, column)
                        for group, column in zip(self._kernel.groups, self._columns)
                    ]
                    self._columns = kernel.carry_columns(sources, reset)
                self._kernel = kernel
            for name in reset:
                self._seen[name] = {}
                if self._traces is not None:
                    self._trace_marks[name] = {o: len(t) for o, t in self._traces.items()}
            self._built_for = (generations, kernel.width)
        kernel = self._kernel
        kernel.grow_columns(self._columns, len(self._interner))
        return kernel

    def _revalidation_report(self, reset: List[str]) -> RevalidationReport:
        """The Decker delta of a pending reset: who actually needs re-checking.

        Reads the *old* kernel's columns (the caller has not carried them
        yet): an object whose component state for a reset spec still equals
        the spec's initial state carried no progress, so the reset changes
        nothing for it (one flag per product state, gathered through the
        column).  On recording sessions, each changed object's full
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
            initial = group.decode[group.root][j]
            flags = np.array([state[j] != initial for state in group.decode])
            moved = np.flatnonzero(flags[self._columns[group_index]]).tolist()
            changed[name] = tuple(self._interner.objects(moved))
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
        """Validate a pre-encoded batch and adopt its id space if fresh.

        Runs before anything is journaled or advanced, so a refused batch
        leaves the session untouched.  Besides the alphabet and id space
        the batch names, its columns are checked (one vectorized pass,
        :func:`repro.engine.vector.check_batch`): every id must hold a code
        of its interner and every code one of the alphabet's.
        """
        engine_alphabet = self._engine.alphabet
        if batch.alphabet is not None and batch.alphabet is not engine_alphabet:
            raise ValueError(
                "the encoded batch was built against a different alphabet than this "
                "engine's; encode with engine.encode_events (or the engine's .alphabet)"
            )
        if batch.objects is not self._interner and len(self._interner):
            raise ValueError(
                "the encoded batch uses a different object-id space than this "
                "stream; encode against stream.object_interner"
            )
        check_batch(batch, len(engine_alphabet))
        self._interner = batch.objects

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
        also when the session checks zero specs.  A pre-encoded batch whose
        ids fall outside its interner or whose codes fall outside the
        engine's alphabet raises ``ValueError`` naming the first bad
        position, and the session stays as it was.

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
        carried = mark_present(present, batch, refused)
        partial = [seen for seen in self._seen.values() if seen is not None]
        if partial:
            carried = dict.fromkeys(carried.tolist())
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
            # The kernel cuts the admitted sub-batch with one boolean mask
            # over the array columns, which the WAL then writes from without
            # a list round trip.
            admitted = kernel.admitted(batch, rejected)
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
        self._check_spec(name)
        kernel = self._resolve_kernel()
        code = self._engine.alphabet.encode(symbol)
        dense = self._interner.code_of(object_id)
        return kernel.admissible_code(self._columns, dense, code, only=name)

    def doomed(self, name: str, object_id: ObjectId) -> bool:
        """Whether one object can no longer satisfy one spec (no continuation
        of its history is accepted) -- the state the ``enforce=True`` gate
        refuses to enter."""
        self._check_spec(name)
        kernel = self._resolve_kernel()
        group_index, j = kernel.locate[name]
        dense = self._interner.code_of(object_id)
        state = kernel.state_of(self._columns, group_index, dense)
        return bool(kernel.groups[group_index].spec_doomed[j][state])

    def _check_spec(self, name: Optional[str]) -> None:
        """Refuse, with one ``KeyError``, a spec this session does not check
        (``None``, meaning every spec, passes)."""
        if name is not None and name not in self._names:
            raise KeyError(f"spec {name!r} is not checked by this stream; have {self._names}")

    def _seen_codes(self, name: Optional[str]) -> Iterable[int]:
        """The dense ids tracked for one spec (for none: every present one):
        the present ones, ascending, unless the spec was reset (then those
        seen since, in first-seen order).  A ``range`` when every interned
        slot is present."""
        seen = self._seen.get(name)
        if seen is not None:
            return seen
        present = self._present
        if not present.count(0):
            return range(len(present))
        return list(compress(range(len(present)), present))

    def objects(self, name: Optional[str] = None) -> Tuple[ObjectId, ...]:
        """The objects fed so far (for one spec, or the first, or -- on a
        session without specs -- all).

        Only objects some admitted event carried are listed; int ids come in
        ascending order, other ids in order of first sight.
        """
        self._check_spec(name)
        selected = name if name is not None else next(iter(self._names), None)
        return tuple(self._interner.objects(list(self._seen_codes(selected))))

    def verdict(self, name: str, object_id: ObjectId) -> bool:
        """Whether one object's history so far satisfies one spec."""
        self._check_spec(name)
        kernel = self._resolve_kernel()
        group_index, j = kernel.locate[name]
        dense = self._interner.code_of(object_id)
        state_index = kernel.state_of(self._columns, group_index, dense)
        return kernel.groups[group_index].accepting[j][state_index] == 1

    def verdicts(self, name: str) -> Dict[ObjectId, bool]:
        """Per-object verdicts for one spec."""
        self._check_spec(name)
        return self._keyed_verdicts((name,))[name]

    def all_verdicts(self) -> Dict[str, Dict[ObjectId, bool]]:
        """Per-object verdicts for every spec of the session."""
        return self._keyed_verdicts(self._names)

    def _keyed_verdicts(self, names: Sequence[str]) -> Dict[str, Dict[ObjectId, bool]]:
        """Per-object verdicts of ``names``, keyed by object id.  The specs
        that track the present objects share one decode of their ids; a
        reset spec, tracking those seen since, decodes its own."""
        kernel = self._resolve_kernel()
        decoded: Dict[Optional[str], Optional[List[ObjectId]]] = {}

        def keyed(name: str) -> Dict[ObjectId, bool]:
            # A call per spec: its dense dict and codes die before the next
            # spec's are built, so the peak holds one spec's (~1 MB at 10⁴ ids).
            dense = kernel.verdicts_of(name, self._columns, self._seen_codes(name))
            key = None if self._seen[name] is None else name
            if key not in decoded:
                codes = list(dense)
                ids = self._interner.objects(codes)
                # Identity codes are their own ids: the dense dict is the answer.
                decoded[key] = None if ids is codes else ids
            ids = decoded[key]
            return dense if ids is None else dict(zip(ids, dense.values()))

        return {name: keyed(name) for name in names}

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
        self._check_spec(name)
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
