"""The fused columnar kernel against the per-spec cursor path and the DFA.

The contract under test, over randomized histories on all five workloads:
for every object and every spec, the fused product kernel's verdict
(:meth:`HistoryCheckerEngine.check_batch_all`, ``StreamChecker`` fed raw
*and* pre-encoded batches) equals the per-spec
:class:`repro.engine.cursors.CursorTable` sweep and a one-shot
``DFA.accepts`` run -- including across a mid-stream spec re-registration,
over a stream fed in small chunks, and with the product cap forcing the
kernel into multiple groups.

The whole-history paths (``check_batch_all`` and ``screen_histories``) are
also checked bounded-exhaustively, after VeriEQL: every history up to a
depth over the banking role sets plus an alien one, against ``DFA.accepts``
and the ``diagnostics.replay`` fatal index, raw and pre-encoded, fused and
one spec per group -- plus sets whose longest history sits on each edge of
the kernel's narrowed length dtypes.
"""

import itertools
import random
import warnings

import pytest

from repro.engine import CursorTable, HistoryCheckerEngine, compile_spec
from repro.engine.diagnostics import replay
from repro.formal.nfa import NFA
from repro.workloads import banking, generators, immigration, phd, three_class, university

ALIEN = frozenset({"ALIEN_CLASS"})


def _workload_cases():
    return [
        (
            "banking",
            banking.ROLE_SETS,
            {
                "checking": banking.checking_role_inventory(),
                "no_downgrade": banking.no_downgrade_inventory(),
            },
        ),
        (
            "university",
            university.ROLE_SETS,
            {
                "all_family": university.expected_families()["all"],
                "life_cycle": university.life_cycle_inventory(),
            },
        ),
        (
            "immigration",
            (
                immigration.ROLE_PERSON,
                immigration.ROLE_VISA_C,
                immigration.ROLE_ABROAD,
                immigration.ROLE_ELIGIBLE,
                immigration.ROLE_IMMIGRANT,
            ),
            {
                "status_order": immigration.status_order_inventory(),
                "no_visa_after": immigration.no_visa_after_immigrant_inventory(),
            },
        ),
        (
            "phd",
            phd.ROLE_SETS,
            {
                "proper_family": phd.expected_proper_family(),
                "sequential": phd.sequential_order_inventory(),
            },
        ),
        (
            "three_class",
            three_class.ROLE_SETS,
            {
                "cycle": three_class.cycle_inventory(),
                "cycle_exact": three_class.cycle_inventory_exact(),
                "branch": three_class.branch_inventory(),
            },
        ),
    ]


def _random_histories(role_sets, seed, count, max_length=9, alien_rate=0.05):
    """Random histories over the workload's role sets, some with alien symbols."""
    rng = random.Random(seed)
    pick = tuple(role_sets) + (ALIEN,)
    histories = []
    for _ in range(count):
        length = rng.randrange(0, max_length)
        word = []
        for _ in range(length):
            if rng.random() < alien_rate:
                word.append(ALIEN)
            else:
                word.append(pick[rng.randrange(len(role_sets))])
        histories.append(tuple(word))
    return histories


WORKLOAD_IDS = [case[0] for case in _workload_cases()]


@pytest.mark.parametrize("workload,role_sets,specs", _workload_cases(), ids=WORKLOAD_IDS)
def test_fused_batch_equals_cursor_table_and_dfa(workload, role_sets, specs):
    histories = _random_histories(role_sets, seed=sum(map(ord, workload)), count=180)
    events = generators.event_stream(histories, seed=7)

    engine = HistoryCheckerEngine()
    for name, spec in specs.items():
        engine.add_spec(name, spec)

    fused = engine.check_batch_all(histories)

    stream = engine.open_stream()
    stream.feed_events(events)

    for name, spec in specs.items():
        compiled = compile_spec(spec.automaton)
        table = CursorTable()
        table.advance_events(compiled, events)
        reference = [spec.automaton.accepts(word) for word in histories]
        assert fused[name] == reference, (workload, name)
        streamed = stream.verdicts(name)
        cursor = table.verdicts(compiled)
        for oid, word in enumerate(histories):
            if word:
                assert streamed[oid] == reference[oid], (workload, name, oid)
                assert cursor[oid] == reference[oid], (workload, name, oid)


@pytest.mark.parametrize("workload,role_sets,specs", _workload_cases(), ids=WORKLOAD_IDS)
def test_preencoded_feed_equals_raw_feed(workload, role_sets, specs):
    histories = _random_histories(role_sets, seed=321, count=120)
    events = generators.event_stream(histories, seed=11)

    engine = HistoryCheckerEngine()
    for name, spec in specs.items():
        engine.add_spec(name, spec)

    raw_stream = engine.open_stream()
    raw_stream.feed_events(events)

    encoded_stream = engine.open_stream()
    cut = len(events) // 2
    batch = engine.encode_events(events[:cut], objects=encoded_stream.object_interner)
    encoded_stream.feed_events(batch)
    encoded_stream.feed_events(events[cut:])  # mixed: encoded then raw

    assert encoded_stream.events_seen == raw_stream.events_seen == len(events)
    for name in specs:
        assert encoded_stream.verdicts(name) == raw_stream.verdicts(name), (workload, name)


def test_mid_stream_reregistration_resets_only_that_spec():
    histories = _random_histories(banking.ROLE_SETS, seed=5, count=200)
    events = generators.event_stream(histories, seed=13)
    cut = len(events) // 2

    engine = HistoryCheckerEngine()
    engine.add_spec("keep", banking.checking_role_inventory())
    engine.add_spec("swap", banking.checking_role_inventory())
    stream = engine.open_stream()
    stream.feed_events(events[:cut])

    engine.add_spec("swap", banking.no_downgrade_inventory())
    stream.feed_events(events[cut:])

    # The swapped spec restarted at the re-registration point ...
    fresh = engine.open_stream(["swap"])
    fresh.feed_events(events[cut:])
    assert stream.verdicts("swap") == fresh.verdicts("swap")
    # ... while the untouched spec kept full-stream verdicts.
    keep = banking.checking_role_inventory().automaton
    verdicts = stream.verdicts("keep")
    for oid, word in enumerate(histories):
        if word:
            assert verdicts[oid] == keep.accepts(word), oid
    assert stream.events_seen == len(events)


def test_chunked_two_spec_stream_agrees_with_accepts():
    histories = _random_histories(banking.ROLE_SETS, seed=17, count=150)
    events = generators.event_stream(histories, seed=19)

    engine = HistoryCheckerEngine()
    engine.add_spec("checking", banking.checking_role_inventory())
    engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
    stream = engine.open_stream()
    for start in range(0, len(events), 40):
        stream.feed_events(events[start : start + 40])

    for name, inventory in (
        ("checking", banking.checking_role_inventory()),
        ("no_downgrade", banking.no_downgrade_inventory()),
    ):
        verdicts = stream.verdicts(name)
        for oid, word in enumerate(histories):
            if word:
                assert verdicts[oid] == inventory.automaton.accepts(word), (name, oid)


def test_tiny_product_cap_splits_groups_without_changing_verdicts():
    histories = _random_histories(banking.ROLE_SETS, seed=23, count=160)
    suite = generators.banking_monitoring_suite()

    fused_engine = HistoryCheckerEngine()
    split_engine = HistoryCheckerEngine(product_cap=3)  # force one spec per group
    for name, spec in suite.items():
        fused_engine.add_spec(name, spec)
        split_engine.add_spec(name, spec)

    assert len(fused_engine._kernel_for(tuple(suite)).groups) == 1
    assert len(split_engine._kernel_for(tuple(suite)).groups) > 1
    assert split_engine.check_batch_all(histories) == fused_engine.check_batch_all(histories)

    events = generators.event_stream(histories, seed=29)
    fused_stream = fused_engine.open_stream()
    split_stream = split_engine.open_stream()
    fused_stream.feed_events(events)
    split_stream.feed_events(events)
    for name in suite:
        assert split_stream.verdicts(name) == fused_stream.verdicts(name), name


# --------------------------------------------------------------------------- #
# Bounded-exhaustive whole-history checks and screens
# --------------------------------------------------------------------------- #
#: Tier-1 depth of the exhaustive history set; deeper runs add one level.
EXHAUSTIVE_DEPTH = 5


def _screening_suite():
    """The banking suite plus an empty-language spec, doomed at its root."""
    suite = generators.banking_monitoring_suite()
    suite["impossible"] = NFA.empty_language(banking.ROLE_SETS)
    return suite


def _suite_engines(suite, caps):
    engines = []
    for cap in caps:
        engine = HistoryCheckerEngine() if cap is None else HistoryCheckerEngine(product_cap=cap)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lint flags the empty language
            for name, spec in suite.items():
                engine.add_spec(name, spec)
        engines.append(engine)
    return engines


def _assert_whole_history_paths_agree(histories, suite, caps=(None,)):
    """``check_batch_all`` and ``screen_histories`` equal the per-history
    ``DFA.accepts`` and ``replay`` oracles, raw and pre-encoded, on an engine
    per product cap; verdicts are ``bool`` and fatal indices ``int``/``None``."""
    engines = _suite_engines(suite, caps)
    compiled = {name: engines[0].compiled(name) for name in suite}
    dfas = {name: getattr(spec, "automaton", spec).determinize() for name, spec in suite.items()}
    verdicts = {name: [dfa.accepts(h) for h in histories] for name, dfa in dfas.items()}
    fatal = {name: [replay(spec, h)[1] for h in histories] for name, spec in compiled.items()}
    for engine in engines:
        for source in (histories, engine.encode_histories(histories)):
            checked = engine.check_batch_all(source)
            screened = engine.screen_histories(source)
            assert checked == verdicts and screened == fatal
            assert {type(v) for column in checked.values() for v in column} <= {bool}
            assert {type(v) for column in screened.values() for v in column} <= {int, type(None)}


def test_whole_history_paths_agree_on_every_short_history(fuzz_rounds):
    depth = EXHAUSTIVE_DEPTH + (fuzz_rounds > 1)
    symbols = tuple(banking.ROLE_SETS) + (ALIEN,)
    histories = [
        word for length in range(depth + 1) for word in itertools.product(symbols, repeat=length)
    ]
    histories += [()] * 3
    random.Random(2024).shuffle(histories)
    _assert_whole_history_paths_agree(histories, _screening_suite(), caps=(None, 3))


@pytest.mark.parametrize("longest", [255, 256, 65_536])
def test_whole_history_paths_agree_across_length_dtype_edges(longest):
    # The kernel sorts and counts lengths in the narrowest dtype holding the
    # longest: 255 fits uint8, 256 needs uint16 and 65 536 uint32.  A history
    # that stays salvageable through all its events counts ``longest`` live
    # rounds, so a too-narrow count would wrap.
    empty, regular = banking.EMPTY_ROLE_SET, banking.ROLE_REGULAR
    rng = random.Random(longest)
    symbols = tuple(banking.ROLE_SETS) + (ALIEN,)
    histories = [
        (empty,) * longest,
        (empty,) * (longest - 1) + (ALIEN,),
        (regular,) + (empty,) * (longest - 1),
        (empty,) * (longest - 1),
        (),
    ]
    histories += [tuple(rng.choices(symbols, k=rng.randrange(8))) for _ in range(40)]
    rng.shuffle(histories)
    _assert_whole_history_paths_agree(histories, _screening_suite())


@pytest.mark.parametrize("count", [0, 4], ids=["empty-set", "all-empty"])
def test_whole_history_paths_agree_without_events(count):
    _assert_whole_history_paths_agree([()] * count, _screening_suite())
