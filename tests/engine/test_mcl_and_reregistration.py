"""Engine integration of MCL specs and the spec re-registration fix.

Covers the regression: re-registering a spec under an existing name must
drop the stale compiled table (batch path) and must never interpret
cursor states minted against the old table with the new one (stream path),
plus the end-to-end acceptance pin that an MCL source string registered via
``add_spec`` streams verdicts identical to the automaton-registered spec.
"""

import pytest

from repro.engine import HistoryCheckerEngine
from repro.workloads import banking, university
from repro.workloads.generators import banking_event_stream, mcl_event_stream

IC, RC = banking.ROLE_INTEREST, banking.ROLE_REGULAR


# --------------------------------------------------------------------------- #
# Re-registration (the satellite fix)
# --------------------------------------------------------------------------- #
def test_reregistration_evicts_stale_compiled_table():
    engine = HistoryCheckerEngine()
    engine.add_spec("spec", banking.checking_role_inventory())
    # Force compilation and verify the first language is live.
    assert engine.check_batch("spec", [(IC,), (RC, IC)]) == [True, True]
    first = engine.compiled("spec")

    engine.add_spec("spec", banking.no_downgrade_inventory())
    second = engine.compiled("spec")
    assert first is not second
    # [RC, IC] is allowed by no_downgrade but [IC, RC] is not: the new
    # automaton must answer, not the stale table.
    assert engine.check_batch("spec", [(RC, IC), (IC, RC)]) == [True, False]
    assert engine.generation("spec") == 2


def test_reregistration_under_same_name_does_not_serve_stale_cache_key():
    engine = HistoryCheckerEngine()
    engine.add_spec("spec", banking.checking_role_inventory())
    first = engine.compiled("spec")
    engine.add_spec("spec", banking.no_downgrade_inventory())
    # The old generation's table was dropped; only the new one fills in.
    second = engine.compiled("spec")
    assert second is not first
    assert list(engine._tables) == [("spec", engine.generation("spec"))]
    assert engine.compiled("spec") is second


def test_open_stream_resets_cursors_after_reregistration():
    histories, events = banking_event_stream(seed=11, objects=300, mean_length=6)
    cut = len(events) // 2

    engine = HistoryCheckerEngine()
    engine.add_spec("spec", banking.checking_role_inventory())
    stream = engine.open_stream(["spec"])
    stream.feed_events(events[:cut])

    engine.add_spec("spec", banking.no_downgrade_inventory())
    stream.feed_events(events[cut:])

    # The stream restarted the spec's histories at the re-registration
    # point: verdicts equal a fresh session fed only the later events.
    fresh = engine.open_stream(["spec"])
    fresh.feed_events(events[cut:])
    assert stream.verdicts("spec") == fresh.verdicts("spec")
    # Total event accounting is unaffected by the reset.
    assert stream.events_seen == len(events)


def test_reregistration_resets_only_the_touched_spec():
    engine = HistoryCheckerEngine()
    engine.add_spec("keep", banking.checking_role_inventory())
    engine.add_spec("swap", banking.checking_role_inventory())
    stream = engine.open_stream(["keep", "swap"])
    stream.feed_events([(1, IC), (2, RC)])
    before = stream.verdicts("keep")

    engine.add_spec("swap", banking.no_downgrade_inventory())
    stream.feed_events([(3, IC)])
    # The untouched spec kept its cursors.
    after = stream.verdicts("keep")
    assert {k: v for k, v in after.items() if k in before} == before
    assert set(stream.objects("swap")) == {3}


# --------------------------------------------------------------------------- #
# MCL source registration
# --------------------------------------------------------------------------- #
def test_add_spec_accepts_mcl_text_and_matches_automaton_spec_end_to_end():
    histories, events = banking_event_stream(seed=23, objects=400, mean_length=8)

    text_engine = HistoryCheckerEngine()
    text_engine.add_spec("checking_roles", banking.MCL_SOURCE, schema=banking.schema())
    automaton_engine = HistoryCheckerEngine()
    automaton_engine.add_spec("checking_roles", banking.checking_role_inventory())

    text_stream = text_engine.open_stream()
    automaton_stream = automaton_engine.open_stream()
    text_stream.feed_events(events)
    automaton_stream.feed_events(events)
    assert text_stream.verdicts("checking_roles") == automaton_stream.verdicts("checking_roles")

    assert text_engine.check_batch("checking_roles", histories) == automaton_engine.check_batch(
        "checking_roles", histories
    )


def test_add_spec_accepts_compiled_constraint_object():
    from repro.core.rolesets import EMPTY_ROLE_SET

    compiled = banking.mcl_constraints()["checking_roles"]
    engine = HistoryCheckerEngine()
    engine.add_spec("spec", compiled)
    assert engine.check_batch("spec", [(IC,), (EMPTY_ROLE_SET,)]) == [True, True]


def test_add_spec_mcl_text_requires_schema():
    engine = HistoryCheckerEngine()
    with pytest.raises(TypeError, match="schema"):
        engine.add_spec("spec", "constraint spec = empty*")


def test_add_spec_mcl_text_selects_by_name_or_rejects_ambiguity():
    from repro.spec import MCLError

    engine = HistoryCheckerEngine()
    engine.add_spec("no_downgrade", banking.MCL_SOURCE, schema=banking.schema())
    assert engine.check_batch("no_downgrade", [(RC, IC), (IC, RC)]) == [True, False]
    with pytest.raises(MCLError, match="ambiguous"):
        engine.add_spec("unrelated_name", banking.MCL_SOURCE, schema=banking.schema())


def test_mcl_event_stream_generator_matches_batch_verdicts():
    text = "constraint guide = init (empty* ([STUDENT]+ [GRAD_ASSIST]*)* empty*)"
    histories, events = mcl_event_stream(text, university.schema(), seed=3, objects=200)
    engine = HistoryCheckerEngine()
    engine.add_spec("guide", text, schema=university.schema())
    stream = engine.open_stream(["guide"])
    stream.feed_events(events)
    batch = engine.check_batch("guide", histories)
    verdicts = stream.verdicts("guide")
    assert [verdicts[index] for index in range(len(histories))] == batch
