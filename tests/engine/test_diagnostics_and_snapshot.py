"""The violation-diagnostics and checkpoint/restore layers.

Covers the two tentpole capabilities end to end:

* ``explain()`` -- fatal-event recovery, minimal shrunk counterexamples
  (1-minimality verified directly), shortest conforming completions, and
  span-anchored MCL clause diagnoses for **every** constraint of **every**
  bundled workload;
* ``snapshot()`` / ``restore_stream()`` -- verdict-identical round trips on
  all five workloads (same engine and fresh-engine restores), wire-format
  validation, fingerprint-based reset on re-registration, trace survival,
  and dict-mode (non-integer id) interners.
"""

from __future__ import annotations

import pytest

from repro.engine import HistoryCheckerEngine, SnapshotError
from repro.engine.diagnostics import is_doomed_word, replay
from repro.engine.snapshot import FORMAT_VERSION, MAGIC
from repro.formal.lazy import containment
from repro.formal.nfa import NFA
from repro.workloads import banking, generators, immigration, phd, three_class, university

WORKLOADS = {
    "banking": banking,
    "university": university,
    "immigration": immigration,
    "phd": phd,
    "three_class": three_class,
}


def _workload_stream(name, module, seed, objects=40):
    """A deterministic interleaved event stream for one workload."""
    if name == "banking":
        return generators.banking_event_stream(seed, objects, noise=0.2)[1]
    if name == "university":
        return generators.university_event_stream(seed, objects, noise=0.2)[1]
    if name == "immigration":
        return generators.immigration_event_stream(seed, objects)[1]
    histories = list(generators.random_histories(module.ROLE_SETS, seed, objects))
    return generators.event_stream(histories, seed + 1)


def _mcl_engine(module):
    engine = HistoryCheckerEngine()
    for constraint_name, constraint in module.mcl_constraints().items():
        engine.add_spec(constraint_name, constraint)
    return engine


def _violating_word(constraint):
    """A shortest word outside the constraint's language (lazy witness)."""
    from repro.formal.lazy import _universe_nfa

    outcome = containment(_universe_nfa(constraint.alphabet), constraint.automaton)
    return outcome.witness


# --------------------------------------------------------------------------- #
# explain(): span-anchored reports for every MCL workload constraint
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_explain_is_span_anchored_for_every_mcl_constraint(workload):
    module = WORKLOADS[workload]
    engine = _mcl_engine(module)
    for name in engine.spec_names():
        constraint = engine.provenance(name)
        assert constraint is not None, name
        witness = _violating_word(constraint)
        assert witness is not None, f"{workload}.{name} accepts every word?"
        violation = engine.explain(name, witness)
        assert violation is not None, (workload, name)
        assert violation.spec == name
        assert violation.history == tuple(witness)
        assert violation.clauses, (workload, name, "no clause provenance")
        for clause in violation.clauses:
            assert clause.line is not None and clause.column is not None
            assert clause.text
        assert any(not clause.satisfied for clause in violation.clauses), (workload, name)
        report = violation.render()
        assert "VIOLATED" in report
        assert name in report


def test_explain_returns_none_for_accepted_histories():
    engine = _mcl_engine(banking)
    histories, _events = generators.banking_event_stream(3, 30, noise=0.0)
    verdicts = engine.check_batch("checking_roles", histories)
    for history, verdict in zip(histories, verdicts):
        violation = engine.explain("checking_roles", history)
        assert (violation is None) == verdict


def test_fatal_index_matches_near_miss_construction():
    engine = _mcl_engine(banking)
    spec = engine.compiled("checking_roles")
    guide_histories, _ = generators.near_miss_banking_stream(17, objects=25, violate_at=6)
    for history in guide_histories:
        violation = engine.explain("checking_roles", history)
        assert violation is not None and violation.doomed
        assert violation.fatal_index == 6
        assert violation.failing_prefix == history[:7]
        assert not is_doomed_word(spec, history[:6])
        assert is_doomed_word(spec, history[:7])


def test_counterexample_is_doomed_and_one_minimal():
    engine = _mcl_engine(banking)
    spec = engine.compiled("checking_roles")
    histories, _ = generators.near_miss_banking_stream(23, objects=10, violate_at=5)
    for history in histories:
        violation = engine.explain("checking_roles", history)
        word = violation.counterexample
        assert is_doomed_word(spec, word)
        for index in range(len(word)):
            shrunk = word[:index] + word[index + 1 :]
            assert not is_doomed_word(spec, shrunk), (word, index)


def test_completion_is_a_conforming_extension():
    engine = HistoryCheckerEngine()
    engine.add_spec(
        "exact",
        "constraint exact = [INTEREST_CHECKING] [REGULAR_CHECKING]",
        schema=banking.schema(),
    )
    spec = engine.compiled("exact")
    history = (banking.ROLE_INTEREST,)
    violation = engine.explain("exact", history)
    assert violation is not None and not violation.doomed
    assert violation.completion == (banking.ROLE_REGULAR,)
    assert spec.accepts(history + violation.completion)
    assert violation.explored_states > 0
    assert "completion" in violation.render()


def test_empty_language_spec_reports_unsatisfiable():
    engine = HistoryCheckerEngine()
    engine.add_spec("impossible", NFA.empty_language(banking.ROLE_SETS))
    violation = engine.explain("impossible", (banking.ROLE_INTEREST,))
    assert violation.doomed and violation.fatal_index == -1
    assert violation.failing_prefix == ()
    assert violation.counterexample == ()
    assert "language is empty" in violation.render()


def test_replay_reports_alien_symbols_as_fatal():
    engine = _mcl_engine(banking)
    spec = engine.compiled("checking_roles")
    alien = frozenset({"NOT_A_BANKING_CLASS"})
    _state, fatal = replay(spec, (banking.ROLE_INTEREST, alien, banking.ROLE_REGULAR))
    assert fatal == 1


def test_check_batch_explain_aligns_with_verdicts():
    engine = _mcl_engine(banking)
    histories, _events = generators.banking_event_stream(5, 30, noise=0.4)
    verdicts, violations = engine.check_batch("checking_roles", histories, explain=True)
    assert verdicts == engine.check_batch("checking_roles", histories)
    failing = [index for index, verdict in enumerate(verdicts) if not verdict]
    assert [violation.object_id for violation in violations] == failing
    for violation in violations:
        assert violation.history == tuple(histories[violation.object_id])


def test_stream_explain_uses_recorded_traces():
    engine = _mcl_engine(banking)
    histories, events = generators.near_miss_banking_stream(31, objects=12, violate_at=3)
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    assert stream.recording
    for index, history in enumerate(histories):
        assert stream.history(index) == history
    reports = stream.explain_all("checking_roles")
    assert len(reports) == len(histories)  # every near-miss object violates
    assert all(report.fatal_index == 3 for report in reports)


def test_stream_explain_without_recording_needs_history():
    engine = _mcl_engine(banking)
    histories, events = generators.banking_event_stream(7, 10, noise=0.5)
    stream = engine.open_stream()
    stream.feed_events(events)
    assert not stream.recording
    with pytest.raises(ValueError):
        stream.history(0)
    with pytest.raises(ValueError):
        stream.explain("checking_roles", 0)
    with pytest.raises(KeyError):
        stream.explain("unknown_spec", 0, history=histories[0])
    explicit = stream.explain("checking_roles", 0, history=histories[0])
    assert (explicit is None) == stream.verdict("checking_roles", 0)


# --------------------------------------------------------------------------- #
# snapshot()/restore_stream(): verdict-identical on all five workloads
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_snapshot_round_trip_is_verdict_identical(workload):
    module = WORKLOADS[workload]
    events = _workload_stream(workload, module, seed=101)
    engine = _mcl_engine(module)

    control = engine.open_stream(record=True)
    control.feed_events(events)

    # Snapshot mid-stream, restore into the same engine and into a fresh
    # engine (the process-restart simulation), finish the stream on both.
    half = len(events) // 2
    stream = engine.open_stream(record=True)
    stream.feed_events(events[:half])
    blob = stream.snapshot()

    restored = engine.restore_stream(blob)
    restored.feed_events(events[half:])
    assert restored.reset_on_restore == ()
    assert restored.all_verdicts() == control.all_verdicts()
    assert restored.events_seen == control.events_seen

    fresh = _mcl_engine(module)
    migrated = fresh.restore_stream(blob)
    migrated.feed_events(events[half:])
    assert migrated.reset_on_restore == ()
    assert migrated.all_verdicts() == control.all_verdicts()


def test_snapshot_preserves_traces_and_objects():
    engine = _mcl_engine(banking)
    _histories, events = generators.banking_event_stream(13, 20, noise=0.3)
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    blob = stream.snapshot()
    restored = _mcl_engine(banking).restore_stream(blob)
    assert restored.recording
    assert restored.objects() == stream.objects()
    for object_id in stream.objects():
        assert restored.history(object_id) == stream.history(object_id)


def test_snapshot_handles_string_object_ids():
    engine = _mcl_engine(banking)
    histories, events = generators.banking_event_stream(19, 15, noise=0.3)
    named_events = [(f"acct-{object_id}", symbol) for object_id, symbol in events]
    stream = engine.open_stream(record=True)
    stream.feed_events(named_events)
    restored = engine.restore_stream(stream.snapshot())
    assert restored.all_verdicts() == stream.all_verdicts()
    assert restored.history("acct-0") == stream.history("acct-0")


def test_snapshot_of_zero_spec_stream_keeps_event_count():
    engine = HistoryCheckerEngine()
    stream = engine.open_stream(())
    stream.feed_events([(0, banking.ROLE_INTEREST), (1, banking.ROLE_REGULAR)])
    restored = engine.restore_stream(stream.snapshot())
    assert restored.events_seen == 2
    assert restored.spec_names == ()


def test_restore_resets_reregistered_specs_only():
    engine = _mcl_engine(banking)
    _histories, events = generators.banking_event_stream(29, 20, noise=0.3)
    stream = engine.open_stream()
    stream.feed_events(events)
    before = stream.all_verdicts()
    blob = stream.snapshot()

    # Replace no_downgrade with a different language; checking_roles stays.
    engine.add_spec("no_downgrade", banking.checking_role_inventory())
    restored = engine.restore_stream(blob)
    assert restored.reset_on_restore == ("no_downgrade",)
    assert restored.verdicts("checking_roles") == before["checking_roles"]
    # The reset spec restarts: every object reads as freshly-initial.
    initial_ok = engine.compiled("no_downgrade").is_accepting(
        engine.compiled("no_downgrade").initial
    )
    assert all(verdict == initial_ok for verdict in restored.verdicts("no_downgrade").values())


def test_stream_explain_agrees_with_verdict_after_reset():
    """After a spec reset, explain judges only post-reset events.

    The recorded trace keeps the whole stream, but a re-registered spec's
    cursor restarts -- diagnostics must not report a doomed violation for
    events the verdict machinery has forgotten.
    """
    engine = _mcl_engine(banking)
    alien = frozenset({"NOT_A_BANKING_CLASS"})
    stream = engine.open_stream(record=True)
    stream.feed_events([(0, alien)])
    assert not stream.verdict("checking_roles", 0)
    # Re-register under the same name: the cursor restarts on next touch.
    engine.add_spec("checking_roles", banking.checking_role_inventory())
    assert stream.verdict("checking_roles", 0)
    assert stream.explain("checking_roles", 0) is None
    # Post-reset events are judged again -- and against post-reset history.
    stream.feed_events([(0, banking.ROLE_ACCOUNT)])
    violation = stream.explain("checking_roles", 0)
    assert violation is not None and violation.history == (banking.ROLE_ACCOUNT,)
    # The full trace is still available for forensics.
    assert stream.history(0) == (alien, banking.ROLE_ACCOUNT)


def test_restored_reset_specs_keep_explain_consistent():
    engine = _mcl_engine(banking)
    _histories, events = generators.banking_event_stream(53, 10, noise=0.5)
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    blob = stream.snapshot()
    engine.add_spec("checking_roles", banking.no_downgrade_inventory())
    restored = engine.restore_stream(blob)
    assert restored.reset_on_restore == ("checking_roles",)
    for object_id, verdict in restored.verdicts("checking_roles").items():
        violation = restored.explain("checking_roles", object_id)
        assert (violation is None) == verdict, object_id


def test_reregistration_invalidates_clause_tables():
    """Each re-registration drops the outgoing generation's spec and clause
    tables; nothing bounds the table dict, so a missed drop would grow it
    by one generation per round."""
    name = "no_visa_after_immigrant"
    engine = _mcl_engine(immigration)
    witness = _violating_word(engine.provenance(name))
    for _ in range(50):
        engine.add_spec(name, immigration.MCL_SOURCE, schema=immigration.schema())
        assert engine.explain(name, witness) is not None  # compiles the clause tables
    generation = engine.generation(name)
    clauses = engine.provenance(name).clauses
    assert len(clauses) == 2
    keys = {key for key in engine._tables if key[0] == name}
    clause_keys = {(name, generation, "clause", clause.index) for clause in clauses}
    assert keys == {(name, generation)} | clause_keys


def test_restore_refuses_pickle_gadgets():
    """A crafted body must not reach arbitrary classes during unpickling."""
    import pickle

    class Gadget:
        def __reduce__(self):
            return (print, ("pwned",))

    import zlib

    engine = _mcl_engine(banking)
    payload = pickle.dumps({"names": (), "objects": ("dense", 0), "gadget": Gadget()})
    blob = (
        MAGIC
        + bytes([0, FORMAT_VERSION])
        + len(payload).to_bytes(8, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )
    with pytest.raises(SnapshotError, match="builtins"):
        engine.restore_stream(blob)


def test_restore_validates_wire_format():
    engine = _mcl_engine(banking)
    stream = engine.open_stream()
    stream.feed_events(generators.banking_event_stream(37, 5)[1])
    blob = stream.snapshot()

    with pytest.raises(SnapshotError, match="bad magic"):
        engine.restore_stream(b"JUNK" + blob[4:])
    with pytest.raises(SnapshotError, match="truncated"):
        engine.restore_stream(blob[:-3])
    bumped = MAGIC + bytes([0, FORMAT_VERSION + 1]) + blob[6:]
    with pytest.raises(SnapshotError, match="unsupported snapshot format"):
        engine.restore_stream(bumped)
    # A flipped body bit fails the header CRC before anything is unpickled.
    flipped = bytearray(blob)
    flipped[-1] ^= 0x40
    with pytest.raises(SnapshotError, match="checksum"):
        engine.restore_stream(bytes(flipped))
    with pytest.raises(SnapshotError, match="bytes"):
        engine.restore_stream("not bytes")
    # Unknown spec: a fresh engine without the snapshot's specs.
    with pytest.raises(KeyError, match="not registered"):
        HistoryCheckerEngine().restore_stream(blob)


def test_restore_translates_across_different_kernel_grouping():
    """A snapshot taken under one product-cap packing restores under another.

    A tiny cap forces the six banking specs into several fused groups; the
    default cap fuses them into one.  Restoring across the two exercises
    the general per-spec translation path (the group-for-group fast path
    cannot apply), in both directions.
    """
    _histories, events, suite = generators.conforming_banking_stream(47, 30, noise=0.3)

    def build(product_cap):
        engine = HistoryCheckerEngine(product_cap=product_cap)
        for name, spec in suite.items():
            engine.add_spec(name, spec)
        return engine

    split, fused = build(8), build(20_000)
    assert len(split._kernel_for(split.spec_names()).groups) > 1
    assert len(fused._kernel_for(fused.spec_names()).groups) == 1

    control = fused.open_stream()
    control.feed_events(events)
    half = len(events) // 2

    for source, target in ((split, fused), (fused, split)):
        stream = source.open_stream()
        stream.feed_events(events[:half])
        migrated = target.restore_stream(stream.snapshot())
        assert migrated.reset_on_restore == ()
        migrated.feed_events(events[half:])
        assert migrated.all_verdicts() == control.all_verdicts(), (
            source._product_cap,
            target._product_cap,
        )


def test_snapshot_is_resumable_repeatedly():
    """snapshot -> restore -> snapshot -> restore converges to the truth."""
    engine = _mcl_engine(banking)
    _histories, events = generators.banking_event_stream(43, 25, noise=0.2)
    control = engine.open_stream()
    control.feed_events(events)

    third = len(events) // 3
    stream = engine.open_stream()
    stream.feed_events(events[:third])
    stream = engine.restore_stream(stream.snapshot())
    stream.feed_events(events[third : 2 * third])
    stream = engine.restore_stream(stream.snapshot())
    stream.feed_events(events[2 * third :])
    assert stream.all_verdicts() == control.all_verdicts()
    assert stream.events_seen == control.events_seen
