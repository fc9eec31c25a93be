"""Identity ingest: int ids are their own codes, presence is exact.

The contract under test:

* :class:`~repro.engine.batch.ObjectInterner` in identity mode gives every
  non-negative int id below :data:`~repro.engine.batch.IDENTITY_LIMIT` its
  own code, gaps allowed; anything else (strings, negative ints, floats
  that are not ints, ids at or past the bound) is dict-interned, and the
  first such id freezes the identity universe without allocating per slot;
* ``intern()`` and ``intern_column()`` agree id for id on every input, so
  codes never depend on how a stream is cut into batches, and a batch that
  raises in either column leaves the interner and the alphabet as they
  were;
* a stream lists exactly the objects some applied batch carried --
  never the ids of a ``reject_batch`` rollback, of a pre-encoded batch that
  was never fed, or of identity-mode gaps -- in its listings, snapshots and
  journal recovery; int ids list in ascending order;
* neither a lone huge id nor a sparse recording session allocates state
  per never-fed slot, and neither the peel plan nor the doomed-population
  check costs a slot of the universe per batch; ids sharing a peel slot
  keep their event order, and only a wholly doomed population skips its
  pass;
* pre-encoded columns are checked where they enter: a batch or history
  set carrying a negative id or code, an id outside its interner or a code
  outside the alphabet raises ``ValueError`` naming the first bad position
  and leaves the session, its journal and its verdicts as they were.
"""

from __future__ import annotations

import pickle
import random
import tracemalloc
import zlib
from array import array

import numpy as np
import pytest

from repro.engine import (
    ColumnarHistorySet,
    EncodedBatch,
    EnforcementError,
    HistoryCheckerEngine,
    ObjectInterner,
    SnapshotError,
)
from repro.engine import snapshot as snapshot_wire
from repro.engine.batch import IDENTITY_LIMIT
from repro.engine.diagnostics import replay
from repro.engine.vector import PEEL_SLOTS
from repro.obs import MetricsRegistry
from repro.workloads import banking, generators

#: Admissible from every account's initial state under ``checking``.
OPEN = banking.ROLE_INTEREST
CLOSE = banking.EMPTY_ROLE_SET
ALIEN = frozenset({"NOT_A_ROLE"})


def _engine():
    engine = HistoryCheckerEngine()
    engine.add_spec("checking", banking.checking_role_inventory())
    return engine


def _listing(stream):
    return stream.objects(), set(stream.verdicts("checking"))


# --------------------------------------------------------------------------- #
# Phantom objects (both reproduced at the parent of identity ingest)
# --------------------------------------------------------------------------- #
def test_reject_batch_rollback_leaves_no_phantom_object():
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([("a", OPEN)], enforce=True)
    with pytest.raises(EnforcementError):
        stream.feed_events([("ghost", ALIEN)], enforce=True, policy="reject_batch")
    stream.feed_events([("b", OPEN)], enforce=True)
    assert stream.events_seen == 2
    assert _listing(stream) == (("a", "b"), {"a", "b"})
    restored = engine.restore_stream(stream.snapshot())
    assert _listing(restored) == (("a", "b"), {"a", "b"})


@pytest.mark.parametrize("unfed, fed", [("x", "y"), (7, 2)])
def test_pre_encoded_batch_never_fed_leaves_no_phantom_object(unfed, fed):
    engine = _engine()
    stream = engine.open_stream()
    engine.encode_events([(unfed, OPEN)], objects=stream.object_interner)
    stream.feed_events([(fed, OPEN)])
    assert _listing(stream) == ((fed,), {fed})
    assert engine.restore_stream(stream.snapshot()).objects() == (fed,)


def test_refused_objects_are_not_listed_by_any_session_shape(tmp_path):
    # An object whose every event the gate refuses was never fed: the
    # in-memory, recording and journaled sessions all agree on that.
    engine = _engine()
    events = [("a", OPEN), ("doomed", ALIEN), ("b", OPEN)]
    plain = engine.open_stream()
    recording = engine.open_stream(record=True)
    durable = engine.open_durable_stream(tmp_path / "wal")
    for session in (plain, recording, durable):
        assert int(session.feed_events(events, enforce=True)) == 2
    assert plain.objects() == recording.objects() == durable.stream.objects() == ("a", "b")
    durable.close()
    assert _engine().recover_stream(tmp_path / "wal").stream.objects() == ("a", "b")


def _reframed(blob, edit):
    """``blob`` with its body rewritten by ``edit`` (header and CRC redone)."""
    start = len(snapshot_wire.MAGIC) + snapshot_wire._HEADER.size
    body = pickle.loads(blob[start:])
    edit(body)
    payload = pickle.dumps(body, protocol=4)
    header = snapshot_wire._HEADER.pack(
        snapshot_wire.FORMAT_VERSION, len(payload), zlib.crc32(payload)
    )
    return snapshot_wire.MAGIC + header + payload


def test_snapshots_written_before_presence_restore_fully_fed():
    # Bodies without an "absent" list list every code below their universe.
    engine = _engine()
    stream = engine.open_stream(record=True)
    stream.feed_events([("a", OPEN), ("b", OPEN), ("a", CLOSE)])
    restored = engine.restore_stream(_reframed(stream.snapshot(), lambda body: body.pop("absent")))
    assert restored.objects() == ("a", "b")
    assert restored.history("a") == (OPEN, CLOSE)


@pytest.mark.parametrize(
    "edit",
    [
        lambda body: body.update(universe=99),
        lambda body: body.update(absent=[-1]),
        lambda body: body.update(objects=("dense", IDENTITY_LIMIT + 1)),
    ],
)
def test_presence_outside_the_id_space_is_corruption(edit):
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([(0, OPEN), (2, OPEN)])
    with pytest.raises(SnapshotError):
        engine.restore_stream(_reframed(stream.snapshot(), edit))


# --------------------------------------------------------------------------- #
# Identity mode
# --------------------------------------------------------------------------- #
def test_int_ids_with_gaps_list_ascending_and_only_when_fed():
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([(9, OPEN), (2, OPEN), (5, OPEN)])
    assert stream.object_interner.to_snapshot() == ("dense", 10)
    assert _listing(stream) == ((2, 5, 9), {2, 5, 9})
    # A gap id answers from the initial state but is not listed.
    assert stream.verdict("checking", 3) == stream.verdict("checking", "never-seen")
    restored = engine.restore_stream(stream.snapshot())
    assert _listing(restored) == ((2, 5, 9), {2, 5, 9})
    # Filling a gap lists it in place.
    restored.feed_events([(3, OPEN), (0, OPEN)])
    assert restored.objects() == (0, 2, 3, 5, 9)


def test_identity_column_is_the_batch_ids_array():
    engine = _engine()
    batch = engine.encode_events([(4, OPEN), (1, CLOSE), (4, CLOSE)])
    assert batch.ids.typecode == "q" and list(batch.ids) == [4, 1, 4]
    assert batch.id_list == [4, 1, 4]
    assert batch.max_id == 4 and len(batch) == 3
    assert batch.max_code == len(engine.alphabet) - 1
    assert batch.objects.to_snapshot() == ("dense", 5)


# --------------------------------------------------------------------------- #
# Ingest inputs
# --------------------------------------------------------------------------- #
def _twins(columns):
    """Intern ``columns`` whole on one interner and id by id on a twin."""
    whole, single = ObjectInterner(), ObjectInterner()
    for column in columns:
        assert whole.intern_column(column) == [single.intern(o) for o in column], columns
        assert len(whole) == len(single)
        assert whole.to_snapshot() == single.to_snapshot(), columns
    return whole


def _dict_mode(interner):
    """``(universe, dict ids in code order)`` read off a dict-mode snapshot."""
    kind, universe, blocks = interner.to_snapshot()
    assert kind == "blocks"
    return universe, [o for block in blocks for o in snapshot_wire.restricted_loads(block)]


def test_negative_ids_are_dict_interned_after_the_identity_prefix():
    interner = _twins([[3, -1, 5], [-1, 1]])
    assert interner.intern_column([3, -1, 5, 1]) == [3, 4, 5, 1]
    assert interner.object(4) == -1 and interner.object(5) == 5
    assert _dict_mode(interner) == (4, [-1, 5])


def test_bool_and_numpy_ints_name_the_int_they_equal():
    interner = _twins([[True, 0, False]])
    assert interner.to_snapshot() == ("dense", 2)
    assert interner.code_of(1) == interner.code_of(True) == 1
    assert type(interner.object(1)) is int
    interner = _twins([[np.int64(3), np.uint8(1)], [np.int64(3)]])
    assert interner.to_snapshot() == ("dense", 4)
    assert type(interner.object(3)) is int


def test_floats_equal_to_an_int_id_name_it_and_others_are_dict_ids():
    interner = _twins([[0, 1, 2], [2.0, 2.5, 1.0], [2.5]])
    assert interner.intern_column([2, 2.0, 2.5]) == [2, 2, 3]
    assert interner.object(3) == 2.5
    # Before any int id, a float that is not an int starts dict mode.
    assert _dict_mode(_twins([[0.5, 0]])) == (0, [0.5, 0])


def test_ids_past_int64_fall_back_to_dict_mode():
    interner = _twins([[2**63, 1], [2**64 + 5, 2**63]])
    assert _dict_mode(interner) == (0, [2**63, 1, 2**64 + 5])


def test_mixed_int_and_str_columns():
    interner = _twins([[0, "a", 1, "b", 2]])
    assert interner.intern_column([0, "a", 1, "b", 2]) == [0, 1, 2, 3, 4]
    assert interner.code_of("b") == 3 and interner.code_of("zz") == -1


def test_every_id_shape_matches_a_dict_keyed_oracle():
    spec = banking.checking_role_inventory().automaton.determinize()
    odd = [7, 0, True, 2.0, 2.5, -3, 2**63, "acct", 10**12, 7.0, 5, np.int64(5), np.uint16(8)]
    rng = random.Random(0x1D)
    for case in range(40):
        events = [(rng.choice(odd), rng.choice(banking.ROLE_SETS)) for _ in range(12)]
        histories = {}
        for object_id, symbol in events:
            histories.setdefault(object_id, []).append(symbol)
        stream = _engine().open_stream()
        cut = rng.randrange(len(events) + 1)
        stream.feed_events(events[:cut])
        stream.feed_events(events[cut:])
        expected = {o: spec.accepts(history) for o, history in histories.items()}
        assert stream.verdicts("checking") == expected, (case, events)
        assert set(stream.objects()) == set(histories), (case, events)


def test_intern_agrees_with_intern_column_on_random_inputs():
    # New string ids repeat within one piece, 2/2.0/True arrive after the
    # universe froze, and two distinct NaN objects are two ids (NaN equals
    # nothing, so only identity makes a NaN key match).
    pool = [0, 1, 2, 3, 5, 8, 13, 40, -1, "a", "b", 2.0, 0.5, True, 2**70, IDENTITY_LIMIT]
    pool += ["c", "d", "c", "d", 2, 2.0, True, float("nan"), float("nan")]
    rng = random.Random(0xA9)
    for _ in range(300):
        column = [rng.choice(pool) for _ in range(rng.randrange(1, 10))]
        cuts = sorted(rng.sample(range(1, len(column) + 1), rng.randrange(1, len(column) + 1)))
        pieces, start = [], 0
        for cut in cuts:
            pieces.append(column[start:cut])
            start = cut
        _twins(pieces)


@pytest.mark.parametrize(
    "fed, bad, valid",
    [
        ([0], [5, []], [5, "new"]),  # identity mode throughout
        ([0], [5, "new", []], [5, "new"]),  # identity -> dict mode
        ([0, "a"], ["b", 7, []], ["b", 7, "a"]),  # dict mode throughout
    ],
    ids=["identity", "identity-to-dict", "dict"],
)
def test_a_batch_that_raises_leaves_the_id_space_and_alphabet_as_they_were(fed, bad, valid):
    engine = _engine()
    stream = engine.open_stream()
    control = engine.open_stream()
    for session in (stream, control):
        session.feed_events([(o, OPEN) for o in fed])
    interner = stream.object_interner
    before = (len(interner), interner.to_snapshot(), [interner.code_of(o) for o in fed])
    with pytest.raises(TypeError, match="unhashable"):
        stream.feed_events([(o, OPEN) for o in bad])
    # An unhashable symbol after a fresh one, off a list or an iterator.
    fresh = frozenset({"FRESH"})
    symbols = [OPEN, fresh, [], fresh]
    version = engine.alphabet.version
    for column in (symbols, iter(symbols)):
        with pytest.raises(TypeError, match="unhashable"):
            engine.alphabet.encode_column(column)
    with pytest.raises(TypeError, match="unhashable"):
        stream.feed_events([(valid[0], fresh), (valid[0], [])])
    assert engine.alphabet.version == version and fresh not in engine.alphabet
    assert (len(interner), interner.to_snapshot(), [interner.code_of(o) for o in fed]) == before
    events = [(o, OPEN) for o in valid]
    codes = engine.encode_events(events, interner).id_list
    assert codes == engine.encode_events(events, control.object_interner).id_list
    assert interner.to_snapshot() == control.object_interner.to_snapshot()


# --------------------------------------------------------------------------- #
# The memory bound
# --------------------------------------------------------------------------- #
def test_the_identity_bound_is_a_fixed_constant():
    below = ObjectInterner()
    below.intern_column([IDENTITY_LIMIT - 1])
    assert below.to_snapshot() == ("dense", IDENTITY_LIMIT)
    at = ObjectInterner()
    assert at.intern_column([IDENTITY_LIMIT]) == [0]
    assert _dict_mode(at) == (0, [IDENTITY_LIMIT])


def _peak_bytes(action):
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_lone_huge_id_allocates_no_per_slot_state():
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([])  # build the kernel outside the measurement
    peak = _peak_bytes(lambda: stream.feed_events([(10**12, OPEN)]))
    assert _dict_mode(stream.object_interner) == (0, [10**12])
    assert stream.objects() == (10**12,)
    assert peak < 1 << 20, f"feeding one id allocated {peak} bytes"


def test_a_fresh_batch_over_a_full_universe_allocates_no_per_slot_scratch():
    # Neither the peel plan's scratch nor the doomed-population check may
    # cost a slot of the identity universe per batch.
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([(IDENTITY_LIMIT - 1, OPEN)])
    rng = random.Random(0x5CA7)
    ids = rng.sample(range(IDENTITY_LIMIT), 400)
    events = [(rng.choice(ids), OPEN) for _ in range(2_000)]
    peak = _peak_bytes(lambda: stream.feed_events(events))
    assert peak < 4 << 20, f"one 2000-event batch allocated {peak} bytes"
    assert len(stream.object_interner) == IDENTITY_LIMIT


def _shared_slot_stream():
    """Conforming and noisy banking traffic, one interleaved batch, where
    three objects share one peel slot (ids ``k``, ``k + S``, ``k + 2S``)."""
    _histories, events, suite = generators.conforming_banking_stream(
        seed=0x5107, objects=6, mean_length=6, noise=0.2
    )
    k = 5
    names = [k, k + PEEL_SLOTS, k + 2 * PEEL_SLOTS, 1, k + 1, 2 * PEEL_SLOTS]
    return [(names[o], symbol) for o, symbol in events], suite


def _gate_oracle(engine, names, events):
    """The positions the enforcement gate must refuse, by per-spec table
    replay: an event is refused iff it leaves some spec unsalvageable after
    its object's admitted events (a refused event is skipped)."""
    admitted = {}
    refused = set()
    for position, (object_id, symbol) in enumerate(events):
        history = admitted.get(object_id, ()) + (symbol,)
        if any(replay(engine.compiled(name), history)[1] is not None for name in names):
            refused.add(position)
        else:
            admitted[object_id] = history
    return refused


@pytest.mark.parametrize("enforce", [False, True], ids=["plain", "enforced"])
def test_ids_sharing_a_peel_slot_keep_their_event_order(enforce):
    events, suite = _shared_slot_stream()
    dfas = {name: spec.automaton.determinize() for name, spec in suite.items()}
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    stream = engine.open_stream()
    report = stream.feed_events(events, enforce=enforce)
    verdicts = {name: stream.verdicts(name) for name in suite}
    refused = {r.index for r in report.rejected} if enforce else set()
    if enforce:
        assert refused, "the enforced case should refuse something"
        assert refused == _gate_oracle(engine, tuple(suite), events)
    histories = {}
    for position, (object_id, symbol) in enumerate(events):
        if position not in refused:
            histories.setdefault(object_id, []).append(symbol)
    for name, dfa in dfas.items():
        assert verdicts[name] == {o: dfa.accepts(h) for o, h in histories.items()}, name


def _sink_skips(registry):
    return registry.to_dict()["repro_kernel_sink_skipped_passes_total"]


def test_only_a_wholly_doomed_population_skips_its_pass():
    registry = MetricsRegistry("sink")
    engine = HistoryCheckerEngine(obs=registry)
    engine.add_spec("checking", banking.checking_role_inventory())
    stream = engine.open_stream()
    stream.feed_events([(0, ALIEN), (1, ALIEN)])
    doomed = {0: False, 1: False}
    assert stream.verdicts("checking") == doomed and _sink_skips(registry) == 0
    stream.feed_events([(1, OPEN), (0, OPEN)])
    assert stream.verdicts("checking") == doomed and _sink_skips(registry) == 1
    # Batches of doomed objects while another one lives are fed: one that
    # touches only doomed objects, one that leads with a doomed object.
    stream.feed_events([(2, OPEN)])
    stream.feed_events([(0, OPEN), (1, CLOSE)])
    stream.feed_events([(0, CLOSE), (2, CLOSE)])
    assert _sink_skips(registry) == 1
    dfa = banking.checking_role_inventory().automaton.determinize()
    assert stream.verdicts("checking") == {**doomed, 2: dfa.accepts((OPEN, CLOSE))}


def test_recording_with_sparse_ids_allocates_no_list_per_unfed_slot():
    engine = _engine()
    stream = engine.open_stream(record=True)
    stream.feed_events([])
    high = 1_000_000
    peak = _peak_bytes(lambda: stream.feed_events([(0, OPEN), (high, OPEN), (high, CLOSE)]))
    # Per slot: a kernel column entry (one byte here, briefly twice while
    # the column grows) plus a presence byte; a list per unfed slot would
    # cost over 60 bytes each.
    assert peak < 32 * high, f"{peak} bytes for a universe of {high + 1} slots"
    assert stream.objects() == (0, high)
    assert stream.history(high) == (OPEN, CLOSE) and stream.history(5) == ()
    restored = engine.restore_stream(stream.snapshot())
    assert restored.history(high) == (OPEN, CLOSE) and restored.objects() == (0, high)


def test_wire_universes_past_the_bound_are_refused():
    with pytest.raises(ValueError):
        ObjectInterner.from_snapshot(("dense", IDENTITY_LIMIT + 1))
    with pytest.raises(ValueError):
        ObjectInterner().extend_tail(("dense", -1), 0)
    assert len(ObjectInterner.from_snapshot(("dense", IDENTITY_LIMIT))) == IDENTITY_LIMIT


def test_pre_encoded_identity_batches_feed_like_raw_ones():
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events(EncodedBatch.from_events([(3, OPEN)], engine.alphabet))
    stream.feed_events([(1, OPEN), (3, CLOSE)])
    assert stream.objects() == (1, 3)


# --------------------------------------------------------------------------- #
# Pre-encoded columns are checked at the boundary
# --------------------------------------------------------------------------- #
def _suite_engine():
    engine = HistoryCheckerEngine()
    for name, spec in generators.banking_monitoring_suite().items():
        engine.add_spec(name, spec)
    return engine


def _bad_batch(case, stream, alphabet):
    """Two events whose second carries the out-of-range entry ``case`` names."""
    interner = stream.object_interner
    code = alphabet.encode(OPEN)
    ids, codes, max_code = [0, 1], [code, code], None
    if case == "negative-id":
        ids[1] = -1
    elif case == "negative-code":
        codes[1] = -1
    elif case == "id-past-interner":
        ids[1] = len(interner)
    else:  # a code past the alphabet, under a max_code that claims otherwise
        codes[1], max_code = len(alphabet), 0
    return EncodedBatch(ids, codes, interner, alphabet, max_code=max_code)


def _state(stream):
    return stream.all_verdicts(), stream.events_seen, len(stream.object_interner)


@pytest.mark.parametrize("feed", ["plain", "reject_event", "reject_batch", "durable"])
@pytest.mark.parametrize(
    "case", ["negative-id", "negative-code", "id-past-interner", "code-past-alphabet"]
)
def test_out_of_range_columns_are_refused_before_anything_moves(case, feed, tmp_path):
    _histories, events, _suite = generators.conforming_banking_stream(
        seed=3, objects=12, mean_length=6
    )
    engine = _suite_engine()
    if feed == "durable":
        durable = engine.open_durable_stream(tmp_path / "wal", checkpoint_every=None)
        durable.feed_events(events)
        stream = durable.stream
        records = durable.stats()["records"]
    else:
        stream = engine.open_stream()
        stream.feed_events(events)
    before = _state(stream)
    batch = _bad_batch(case, stream, engine.alphabet)
    with pytest.raises(ValueError, match=r"at position 1\b"):
        if feed == "durable":
            durable.feed_events(batch)
        elif feed == "plain":
            stream.feed_events(batch)
        else:
            stream.feed_events(batch, enforce=True, policy=feed)
    assert _state(stream) == before
    if feed == "durable":
        assert durable.stats()["records"] == records
        durable.close()
        recovered = _suite_engine().recover_stream(tmp_path / "wal")
        assert _state(recovered.stream) == before


def test_the_error_names_the_first_bad_event_across_both_columns():
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([(0, OPEN), (1, OPEN)])
    code = engine.alphabet.encode(OPEN)
    batch = EncodedBatch([0, 1, -1], [code, -1, code], stream.object_interner, engine.alphabet)
    with pytest.raises(ValueError, match=r"object id 1 and symbol code -1 at position 1\b"):
        stream.feed_events(batch)


def test_out_of_range_codes_never_change_a_verdict():
    # An event outside every alphabet dooms every spec; a -1 code that went
    # through used to wrap into the previous state's table row instead.
    histories, events, suite = generators.conforming_banking_stream(
        seed=3, objects=40, mean_length=6
    )
    engine = _suite_engine()
    stream = engine.open_stream()
    stream.feed_events(events)
    restored = engine.restore_stream(stream.snapshot())
    for o in range(len(histories)):
        batch = EncodedBatch([o], [-1], restored.object_interner, engine.alphabet)
        with pytest.raises(ValueError, match=r"symbol code -1 at position 0\b"):
            restored.feed_events(batch)
    restored.feed_events(events)
    expected = {
        name: {o: spec.automaton.determinize().accepts(h + h) for o, h in enumerate(histories) if h}
        for name, spec in suite.items()
    }
    assert restored.all_verdicts() == expected


def test_history_sets_with_out_of_range_codes_are_refused():
    histories, _events, _suite = generators.conforming_banking_stream(
        seed=3, objects=40, mean_length=6
    )
    engine = _suite_engine()
    encoded = engine.encode_histories(histories)
    lengths = np.diff(np.frombuffer(encoded.offsets, dtype=np.int64)).tolist()
    # -1 appended to every history: the first lands right after history 0.
    code_list, offsets, position = [], [0], 0
    for length in lengths:
        code_list += encoded.code_list[position : position + length] + [-1]
        position += length
        offsets.append(len(code_list))
    padded = ColumnarHistorySet(code_list, array("q", offsets), engine.alphabet)
    with pytest.raises(ValueError, match=rf"symbol code -1 at position {lengths[0]}\b"):
        engine.check_batch_all(padded)
    past = ColumnarHistorySet([0, len(engine.alphabet)], array("q", [0, 2]), max_code=0)
    with pytest.raises(ValueError, match=r"at position 1\b"):
        engine.screen_histories(past)
    assert engine.check_batch_all(encoded) == engine.check_batch_all(histories)


@pytest.mark.parametrize(
    "offsets,history",
    [
        ([0, 2, 21], 1),  # runs past the codes
        ([-2, 2, 16], 0),  # starts before them
        ([0, 4, 2, 16], 1),  # runs backwards
        ([3, 5, 16], 0),  # codes 0..2 belong to no history
        ([0, 2, 13], 1),  # codes 13..15 belong to no history
    ],
    ids=["past-end", "negative-start", "decreasing", "late-start", "early-end"],
)
def test_history_sets_with_bad_offsets_are_refused(offsets, history):
    # Offsets must start at 0, never decrease and end at the code count; a
    # set that breaks it is refused naming the first bad history, before
    # any kernel is built -- not by an IndexError from inside the rounds,
    # nor with verdicts for codes that belong to no history.
    histories, _events, _suite = generators.conforming_banking_stream(
        seed=3, objects=40, mean_length=6
    )
    engine = _suite_engine()
    codes = engine.encode_histories(histories).code_list[:16]
    bare = ColumnarHistorySet(codes, array("q", offsets), max_code=max(codes))
    for call in (
        engine.check_batch_all,
        lambda source: engine.check_batch("checking_roles", source),
        engine.screen_histories,
    ):
        with pytest.raises(ValueError, match=rf"history {history} spans offsets"):
            call(bare)
    assert engine.stats()["kernel_cache"]["size"] == 0
    good = ColumnarHistorySet(codes, array("q", [0, 2, 16]), max_code=max(codes))
    symbol = engine.alphabet.symbol
    raw = [[symbol(code) for code in codes[:2]], [symbol(code) for code in codes[2:]]]
    assert engine.check_batch_all(good) == engine.check_batch_all(raw)
    assert engine.screen_histories(good) == engine.screen_histories(raw)
