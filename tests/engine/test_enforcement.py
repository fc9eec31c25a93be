"""Preventive enforcement: masks, the enforce=True gate, lint, delta re-checks.

The contract under test, layer by layer:

* the per-state **admissibility mask** on every compiled table answers
  exactly what a one-step :func:`repro.engine.diagnostics.replay` would --
  across all five bundled workloads, every reachable state, every symbol
  (plus an alien one);
* ``feed_events(..., enforce=True)`` is a transactional gate: refused
  events carry span-anchored violations, ``reject_event`` skips and
  continues, ``reject_batch`` rolls the whole batch back untouched;
* the durable stream journals **admitted events only** -- recovery replays
  to the enforced session's exact state, and a refused batch leaves the
  WAL byte-identical;
* ``screen_histories`` (the batch analogue) matches the replay oracle;
* spec re-registration re-validates only objects whose state actually
  moved (``RevalidationReport``), and ``lint_specs`` flags unsatisfiable /
  equivalent / redundant / contradictory constraint sets at registration;
* the satellite contracts: ``trace_limit`` stops recorded traces from
  growing once an object hits the doomed sink, ``engine.stats()`` has a
  frozen top-level key set, and restoring a snapshot across a
  re-registration is decided by table *fingerprint*, not generation.
"""

from __future__ import annotations

import importlib
import warnings
from collections import deque

import pytest

from repro.engine import (
    PRODUCT_STATE_CAP,
    EnforcementError,
    EnforcementReport,
    HistoryCheckerEngine,
)
from repro.engine.diagnostics import replay
from repro.obs.metrics import MetricsRegistry
from repro.workloads import banking, generators
from repro.workloads.generators import conforming_banking_stream

WORKLOADS = ("banking", "university", "immigration", "phd", "three_class")

ALIEN = banking.RoleSet({"ALIEN_CLASS"})


def _suite_engine(seed=101, objects=30, mean_length=12):
    """A banking-suite engine plus mostly-conforming interleaved events."""
    histories, events, suite = conforming_banking_stream(
        seed=seed, objects=objects, mean_length=mean_length
    )
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    return engine, histories, events, tuple(sorted(suite))


def _state_witnesses(spec):
    """BFS over the compiled table: state -> a shortest symbol word reaching it."""
    by_code = {code: symbol for symbol, code in spec.codes.items()}
    witnesses = {spec.initial: ()}
    queue = deque([spec.initial])
    while queue:
        state = queue.popleft()
        if state == spec.dead:
            continue
        word = witnesses[state]
        for code in range(spec.n_symbols):
            successor = spec.table[state * spec.n_symbols + code]
            if successor not in witnesses:
                witnesses[successor] = word + (by_code[code],)
                queue.append(successor)
    return witnesses


# --------------------------------------------------------------------------- #
# The admissibility mask vs. the one-step replay oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", WORKLOADS)
def test_admissibility_mask_matches_one_step_replay(workload):
    """mask[state][symbol] == "replaying one more symbol stays salvageable".

    For every reachable state of every constraint of every bundled workload
    (witness words from a table BFS), over every alphabet symbol plus an
    alien one: the O(1) mask lookup must agree with a full replay of the
    witness word extended by that symbol.
    """
    module = importlib.import_module(f"repro.workloads.{workload}")
    engine = HistoryCheckerEngine()
    constraints = module.mcl_constraints()
    for name, constraint in constraints.items():
        engine.add_spec(name, constraint)
    checked = 0
    for name in constraints:
        spec = engine.compiled(name)
        witnesses = _state_witnesses(spec)
        assert spec.dead not in witnesses or len(witnesses) > 1
        symbols = list(spec.codes) + [ALIEN]
        for state, word in witnesses.items():
            for symbol in symbols:
                oracle = replay(spec, word + (symbol,))[1] is None
                assert spec.admissible(state, symbol) == oracle, (workload, name, state, symbol)
                checked += 1
        # The synthetic dead state admits nothing, even unreached.
        for symbol in symbols:
            assert not spec.admissible(spec.dead, symbol), (workload, name)
    assert checked  # every workload exercised at least one (state, symbol)


def test_engine_admissible_is_an_initial_state_mask_lookup():
    engine = HistoryCheckerEngine()
    for name, constraint in banking.mcl_constraints().items():
        engine.add_spec(name, constraint)
    for name in ("checking_roles", "no_downgrade"):
        spec = engine.compiled(name)
        for symbol in list(spec.codes) + [ALIEN]:
            oracle = replay(spec, (symbol,))[1] is None
            assert engine.admissible(name, symbol) == oracle, (name, symbol)
            assert engine.admissible(name, symbol, state=spec.initial) == oracle


def test_stream_admissible_matches_replay_on_live_objects():
    engine, histories, events, names = _suite_engine()
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    symbols = sorted(
        {symbol for name in names for symbol in engine.compiled(name).codes}, key=repr
    )
    for index, history in enumerate(histories):
        for name in names:
            spec = engine.compiled(name)
            state, fatal = replay(spec, history)
            if fatal is not None:
                continue  # doomed objects collapse onto the sink; mask row is all-zero
            for symbol in symbols:
                oracle = replay(spec, history + (symbol,))[1] is None
                assert stream.admissible(index, symbol, name=name) == oracle, name
        if all(replay(engine.compiled(name), history)[1] is None for name in names):
            for symbol in symbols:
                oracle = all(
                    replay(engine.compiled(name), history + (symbol,))[1] is None
                    for name in names
                )
                assert stream.admissible(index, symbol) == oracle, (index, symbol)
    # Unknown objects are judged from the initial state; alien symbols never admit.
    assert not stream.admissible("never-seen", ALIEN)


# --------------------------------------------------------------------------- #
# The enforce=True gate
# --------------------------------------------------------------------------- #
def test_reject_event_skips_and_continues():
    engine, histories, events, names = _suite_engine(seed=7)
    oracle = engine.screen_histories(histories)
    fatal_total = sum(
        1
        for index in range(len(histories))
        if any(oracle[name][index] is not None for name in names)
    )
    stream = engine.open_stream(record=True)
    report = stream.feed_events(events, enforce=True)
    assert isinstance(report, EnforcementReport) and isinstance(report, int)
    assert int(report) == report.admitted == stream.events_seen
    assert report.policy == "reject_event"
    assert int(report) + len(report.rejected) == len(events)
    if fatal_total:
        assert report.rejected  # the mostly-conforming stream still violates somewhere
    for record in report.rejected:
        assert events[record.index] == (record.object_id, record.symbol)
        assert record.blocked_specs and set(record.blocked_specs) <= set(names)
        violation = record.violation
        assert violation is not None and violation.doomed
        assert violation.fatal_index == len(violation.history) - 1
        assert violation.history[-1] == record.symbol
        assert violation.spec in record.blocked_specs
    # The invariant the gate exists for: nothing in the session is doomed.
    for name in names:
        for object_id in stream.objects(name):
            assert not stream.doomed(name, object_id), (name, object_id)


def test_reject_batch_rolls_back_untouched():
    engine, histories, events, names = _suite_engine(seed=7)
    half = len(events) // 2
    stream = engine.open_stream(record=True)
    clean_report = stream.feed_events(events[:half], enforce=True)
    seen_before = stream.events_seen
    verdicts_before = {name: stream.verdicts(name) for name in names}
    histories_before = {index: stream.history(index) for index in range(len(histories))}
    rest = events[half:]
    probe = engine.open_stream()
    probe_report = probe.feed_events(rest, enforce=True)
    if not probe_report.rejected:
        pytest.skip("seed produced no violation in the second half")
    with pytest.raises(EnforcementError) as caught:
        stream.feed_events(rest, enforce=True, policy="reject_batch")
    error = caught.value
    assert error.policy == "reject_batch"
    assert rest[error.index] == (error.object_id, error.symbol)
    assert error.blocked_specs and set(error.blocked_specs) <= set(names)
    assert error.violation is not None and error.violation.doomed
    # All-or-nothing: cursor state, traces and the event counter are untouched.
    assert stream.events_seen == seen_before == int(clean_report)
    assert {name: stream.verdicts(name) for name in names} == verdicts_before
    assert {index: stream.history(index) for index in range(len(histories))} == histories_before
    # The same batch under reject_event admits everything except the violations.
    report = stream.feed_events(rest, enforce=True)
    assert int(report) == len(rest) - len(report.rejected)


def test_rejections_of_mcl_specs_carry_source_spans():
    """The gate's violations are span-anchored when specs come from MCL."""
    engine = HistoryCheckerEngine()
    for name, constraint in banking.mcl_constraints().items():
        engine.add_spec(name, constraint)
    stream = engine.open_stream(record=True)
    downgrade = [
        ("acct", banking.ROLE_BOTH),
        ("acct", banking.ROLE_REGULAR),  # BOTH -> REGULAR violates no_downgrade
    ]
    report = stream.feed_events(downgrade, enforce=True)
    assert len(report.rejected) == 1
    violation = report.rejected[0].violation
    assert violation is not None and violation.doomed
    assert violation.clauses and any(clause.line is not None for clause in violation.clauses)
    assert any(not clause.satisfied for clause in violation.clauses)


def test_enforcement_policy_and_trace_limit_validation():
    engine, _, events, _ = _suite_engine()
    stream = engine.open_stream()
    with pytest.raises(ValueError, match="policy"):
        stream.feed_events(events[:3], enforce=True, policy="abort")
    with pytest.raises(ValueError, match="trace_limit"):
        engine.open_stream(trace_limit=0)


def test_enforced_feed_with_no_specs_admits_everything():
    engine, _, events, _ = _suite_engine()
    stream = engine.open_stream(names=())
    report = stream.feed_events(events, enforce=True)
    assert int(report) == len(events) and not report.rejected
    assert stream.events_seen == len(events)


def test_non_recording_rejections_answer_violation_none():
    engine, _, events, _ = _suite_engine(seed=7)
    stream = engine.open_stream()  # record=False: pre-batch history is gone
    report = stream.feed_events(events, enforce=True)
    assert report.rejected
    for record in report.rejected:
        assert record.violation is None
        assert record.blocked_specs  # the mask still names the blockers


# --------------------------------------------------------------------------- #
# screen_histories -- the batch analogue
# --------------------------------------------------------------------------- #
def test_screen_histories_matches_replay_oracle():
    engine, histories, _, names = _suite_engine(seed=11)
    screened = engine.screen_histories(histories)
    assert sorted(screened) == sorted(names)
    for name in names:
        spec = engine.compiled(name)
        expected = [replay(spec, history)[1] for history in histories]
        assert screened[name] == expected, name


# --------------------------------------------------------------------------- #
# The WAL journals admitted events only
# --------------------------------------------------------------------------- #
def test_durable_enforced_feed_journals_admitted_only(tmp_path):
    engine, histories, events, names = _suite_engine(seed=7)
    durable = engine.open_durable_stream(tmp_path, checkpoint_every=None)
    admitted = 0
    rejected = 0
    for start in range(0, len(events), 25):
        report = durable.feed_events(events[start : start + 25], enforce=True)
        admitted += int(report)
        rejected += len(report.rejected)
    assert rejected and admitted == durable.events_seen
    live = durable.all_verdicts()
    durable.close()

    fresh = HistoryCheckerEngine()
    for name, spec in generators.banking_monitoring_suite().items():
        fresh.add_spec(name, spec)
    recovered = fresh.recover_stream(tmp_path)
    # Recovery replays the WAL -- which must hold the admitted prefix only.
    assert recovered.events_seen == admitted
    assert recovered.all_verdicts() == live
    for name in names:
        for object_id in recovered.stream.objects(name):
            assert not recovered.stream.doomed(name, object_id), (name, object_id)


def test_admitted_sub_batch_is_cut_in_the_kernel_layout(tmp_path, monkeypatch):
    # The WAL journals exactly the admitted events, cut from the array
    # columns, so it writes them list-free.
    engine, _histories, events, _names = _suite_engine(seed=7)
    durable = engine.open_durable_stream(tmp_path, checkpoint_every=None)
    appended = []
    append = durable._append_batch

    def capture(batch):
        append(batch)
        appended.append(batch)

    monkeypatch.setattr(durable, "_append_batch", capture)
    interner = durable.stream.object_interner
    refusing = 0
    for start in range(0, len(events), 25):
        chunk = events[start : start + 25]
        appended.clear()
        report = durable.feed_events(chunk, enforce=True)
        refused = {record.index for record in report.rejected}
        if not refused:
            continue
        refusing += 1
        (batch,) = appended
        assert batch._id_list is None and batch._code_list is None
        journaled = [
            (interner.object(o), engine.alphabet.symbol(c)) for o, c in zip(batch.ids, batch.codes)
        ]
        assert journaled == [event for p, event in enumerate(chunk) if p not in refused]
    assert refusing
    durable.close()


def test_durable_reject_batch_leaves_wal_untouched(tmp_path):
    engine, histories, events, names = _suite_engine(seed=7)
    half = len(events) // 2
    durable = engine.open_durable_stream(tmp_path, checkpoint_every=None)
    first = durable.feed_events(events[:half], enforce=True)
    seen = durable.events_seen
    probe = engine.open_stream()
    if not probe.feed_events(events[half:], enforce=True).rejected:
        pytest.skip("seed produced no violation in the second half")
    with pytest.raises(EnforcementError):
        durable.feed_events(events[half:], enforce=True, policy="reject_batch")
    assert durable.events_seen == seen == int(first)
    live = durable.all_verdicts()
    durable.close()
    fresh = HistoryCheckerEngine()
    for name, spec in generators.banking_monitoring_suite().items():
        fresh.add_spec(name, spec)
    recovered = fresh.recover_stream(tmp_path)
    assert recovered.events_seen == seen
    assert recovered.all_verdicts() == live


# --------------------------------------------------------------------------- #
# trace_limit: recorded traces stop growing at the cap
# --------------------------------------------------------------------------- #
def test_trace_limit_caps_recorded_history():
    engine, histories, events, names = _suite_engine(seed=7, objects=6, mean_length=40)
    limit = 8
    stream = engine.open_stream(record=True, trace_limit=limit)
    stream.feed_events(events)
    for index, history in enumerate(histories):
        assert stream.history(index) == tuple(history[:limit]), index
    # Regression: a doomed object (groups collapsed onto the sink) used to
    # keep appending to its trace on every event, unboundedly.
    doomed_id = next(
        (
            object_id
            for name in names
            for object_id in stream.objects(name)
            if stream.doomed(name, object_id)
        ),
        0,
    )
    before = stream.history(doomed_id)
    symbol = next(iter(engine.compiled(names[0]).codes))
    stream.feed_events([(doomed_id, symbol)] * 100)
    assert stream.history(doomed_id) == before
    assert len(stream.history(doomed_id)) <= limit
    # The cap survives a snapshot round trip.
    restored = engine.restore_stream(stream.snapshot())
    restored.feed_events([(doomed_id, symbol)] * 100)
    assert restored.history(doomed_id) == before


def test_unlimited_traces_remain_the_default():
    engine, histories, events, _ = _suite_engine(seed=7, objects=4, mean_length=20)
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    for index, history in enumerate(histories):
        assert stream.history(index) == tuple(history), index


# --------------------------------------------------------------------------- #
# stats() shape contract
# --------------------------------------------------------------------------- #
STATS_KEYS = {"specs", "alphabet_size", "kernel_cache", "observability"}
CACHE_KEYS = {"hits", "misses", "evictions", "size", "maxsize"}
#: Every series ``stats()["metrics"]`` carries on a fresh private registry.
METRIC_SERIES = {
    "repro_engine_batches_total",
    'repro_engine_cache_evictions_total{cache="kernel"}',
    'repro_engine_cache_hits_total{cache="kernel"}',
    'repro_engine_cache_misses_total{cache="kernel"}',
    "repro_engine_check_batches_total",
    "repro_engine_enforce_rejections_total",
    "repro_engine_events_total",
    "repro_engine_screen_batches_total",
    'repro_engine_snapshot_bytes_total{direction="dump"}',
    'repro_engine_snapshot_bytes_total{direction="restore"}',
    "repro_engine_snapshot_state_translations_total",
    "repro_engine_specs",
    "repro_engine_streams_opened_total",
    'repro_engine_verdicts_total{verdict="fail"}',
    'repro_engine_verdicts_total{verdict="pass"}',
    "repro_engine_violations_total",
    'repro_journal_bytes_total{direction="append"}',
    'repro_journal_bytes_total{direction="replay"}',
    "repro_journal_checkpoints_total",
    'repro_journal_records_total{direction="append"}',
    'repro_journal_records_total{direction="replay"}',
    "repro_journal_truncated_records_total",
    "repro_kernel_batches_total",
    "repro_kernel_events_total",
    "repro_kernel_gather_rounds_total",
    "repro_kernel_histories_total",
    "repro_kernel_plan_cache_hits_total",
    "repro_kernel_plan_cache_misses_total",
    "repro_kernel_scalar_fallback_events_total",
    "repro_kernel_sink_skipped_passes_total",
    "repro_stream_recoveries_total",
}
#: The counters one whole-history check moves, and how far.
BATCH_COUNTERS = (
    "repro_engine_check_batches_total",
    "repro_kernel_histories_total",
    "repro_kernel_gather_rounds_total",
    'repro_engine_verdicts_total{verdict="pass"}',
    'repro_engine_verdicts_total{verdict="fail"}',
)


def test_stats_top_level_keys_are_a_frozen_schema():
    """Dashboards key on these names: adding or dropping one is a contract
    change.  Instrumented engines add exactly ``metrics``, whose series set
    is frozen too; the kernel-cache section has one key set, and one
    ``check_batch_all`` moves the batch counters by exactly its histories,
    rounds and verdicts.  A
    ``screen_histories`` of the same histories moves the kernel counters by
    as much and counts itself apart, leaving the check series alone."""
    assert set(HistoryCheckerEngine(obs=False).stats()) == STATS_KEYS
    instrumented = HistoryCheckerEngine(obs=MetricsRegistry("stats")).stats()
    assert set(instrumented) == STATS_KEYS | {"metrics"}
    assert set(instrumented["kernel_cache"]) == CACHE_KEYS
    assert set(instrumented["metrics"]) == METRIC_SERIES

    histories, _events, suite = conforming_banking_stream(seed=5, objects=40, mean_length=8)
    for cap, groups in ((PRODUCT_STATE_CAP, 1), (3, len(suite))):
        engine = HistoryCheckerEngine(obs=MetricsRegistry(f"batch-{cap}"), product_cap=cap)
        for name, spec in suite.items():
            engine.add_spec(name, spec)
        engine.check_batch_all(histories)
        metrics = engine.stats()["metrics"]
        assert len(engine._kernel_for(tuple(suite)).groups) == groups
        check, checked, rounds, passes, fails = (metrics[key] for key in BATCH_COUNTERS)
        assert (check, checked) == (1, len(histories))
        assert rounds == max(map(len, histories)) * groups
        assert passes + fails == len(histories) * len(suite)
        assert metrics["repro_engine_screen_batches_total"] == 0
        engine.screen_histories(histories)
        after = engine.stats()["metrics"]
        moved = [check, 2 * checked, 2 * rounds, passes, fails]
        assert [after[key] for key in BATCH_COUNTERS] == moved
        assert after["repro_engine_screen_batches_total"] == 1


# --------------------------------------------------------------------------- #
# Snapshot restore across re-registration: fingerprint, not generation
# --------------------------------------------------------------------------- #
def test_restore_after_same_text_reregistration_keeps_state():
    engine, histories, events, names = _suite_engine(seed=13)
    suite = generators.banking_monitoring_suite()
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    expected = {name: stream.verdicts(name) for name in names}
    blob = stream.snapshot()
    # Re-registering the identical automaton bumps every generation (live
    # streams reset) but compiles to the identical table fingerprint --
    # restore must keep the snapshot's progress.
    for name in names:
        engine.add_spec(name, suite[name])
    restored = engine.restore_stream(blob)
    assert restored.reset_on_restore == ()
    assert restored.events_seen == len(events)
    assert {name: restored.verdicts(name) for name in names} == expected
    # The restored stream adopts the *current* generations: feeding works
    # without a retroactive reset.
    restored.feed_events(events[:5])
    assert restored.last_revalidation is None


def test_restore_after_changed_text_reregistration_resets_that_spec():
    engine, histories, events, names = _suite_engine(seed=13)
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    blob = stream.snapshot()
    target, keeper = names[0], names[1]
    keeper_verdicts = stream.verdicts(keeper)
    # Swap in a genuinely different automaton under the same name: a spec
    # accepting exactly the one-event word (REGULAR,).
    from repro.formal.nfa import NFA

    reg, interest = banking.ROLE_REGULAR, banking.ROLE_INTEREST
    engine.add_spec(target, NFA([0, 1], [reg, interest], {(0, reg): [1]}, [0], [1]))
    restored = engine.restore_stream(blob)
    assert restored.reset_on_restore == (target,)
    assert restored.verdicts(keeper) == keeper_verdicts
    # The reset spec restarts from its initial state: no object carries
    # pre-snapshot progress.
    initial_ok = engine.compiled(target).accepts(())
    for verdict in restored.verdicts(target).values():
        assert verdict == initial_ok


# --------------------------------------------------------------------------- #
# Delta-driven re-checking on re-registration
# --------------------------------------------------------------------------- #
def test_last_revalidation_reports_only_moved_objects():
    engine, histories, events, names = _suite_engine(seed=17)
    target = names[0]
    stream = engine.open_stream(record=True)
    stream.feed_events(events)
    old_spec = engine.compiled(target)
    moved = {
        index
        for index, history in enumerate(histories)
        if replay(old_spec, history)[0] != old_spec.initial
        or replay(old_spec, history)[1] is not None
    }
    engine.add_spec(target, generators.banking_monitoring_suite()[target])
    stream.feed_events(events[:1])  # resolves the new kernel
    report = stream.last_revalidation
    assert report is not None and report.specs == (target,)
    assert set(report.changed[target]) == moved
    assert report.replayed == len(moved)
    new_spec = engine.compiled(target)
    for index in moved:
        expected = new_spec.accepts(histories[index])
        assert report.verdicts[target][index] == expected, index


def test_revalidation_without_recording_skips_the_replays():
    engine, histories, events, names = _suite_engine(seed=17)
    stream = engine.open_stream()  # record=False
    stream.feed_events(events)
    engine.add_spec(names[0], generators.banking_monitoring_suite()[names[0]])
    stream.feed_events(events[:1])
    report = stream.last_revalidation
    assert report is not None and report.verdicts is None and report.replayed == 0


# --------------------------------------------------------------------------- #
# Registration-time lint
# --------------------------------------------------------------------------- #
def test_lint_specs_flags_the_banking_redundancy():
    engine = HistoryCheckerEngine()
    for name, constraint in banking.mcl_constraints().items():
        engine.add_spec(name, constraint)
    findings = engine.lint_specs()
    assert any(
        finding.kind == "redundant" and finding.specs == ("no_downgrade", "checking_roles")
        for finding in findings
    )
    rendered = "\n".join(finding.render() for finding in findings)
    assert "no_downgrade" in rendered and "checking_roles" in rendered


def test_lint_specs_flags_equivalent_contradictory_and_unsatisfiable():
    from repro.formal.nfa import NFA

    reg, interest = banking.ROLE_REGULAR, banking.ROLE_INTEREST
    only_reg = NFA([0, 1], [reg, interest], {(0, reg): [1]}, [0], [1])
    only_int = NFA([0, 1], [reg, interest], {(0, interest): [1]}, [0], [1])
    never = NFA([0], [reg, interest], {}, [0], [])
    engine = HistoryCheckerEngine()
    engine.add_spec("a", only_reg)
    engine.add_spec("a_again", only_reg)
    engine.add_spec("b", only_int)
    engine.add_spec("impossible", never)
    kinds = {finding.kind: finding for finding in engine.lint_specs()}
    assert kinds["equivalent"].specs == ("a", "a_again")
    assert set(kinds["contradictory"].specs) <= {"a", "a_again", "b"}
    assert kinds["unsatisfiable"].specs == ("impossible",)
    # An unsatisfiable spec dooms every object before its first event --
    # exactly what the gate then refuses wholesale.
    stream = engine.open_stream(names=("impossible",))
    report = stream.feed_events([(0, reg), (1, interest)], enforce=True)
    assert int(report) == 0 and len(report.rejected) == 2


def test_add_spec_lint_warns_on_findings_touching_the_new_name():
    constraints = banking.mcl_constraints()
    engine = HistoryCheckerEngine()
    engine.add_spec("checking_roles", constraints["checking_roles"])
    with pytest.warns(UserWarning, match="redundant"):
        engine.add_spec("no_downgrade", constraints["no_downgrade"], lint=True)
    # Without lint=True registration stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine.add_spec("no_downgrade", constraints["no_downgrade"])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
