"""Identity ingest: int ids are their own codes, presence is exact.

The contract under test:

* :class:`~repro.engine.batch.ObjectInterner` in identity mode gives every
  non-negative int id below :data:`~repro.engine.batch.IDENTITY_LIMIT` its
  own code, gaps allowed; anything else (strings, negative ints, floats
  that are not ints, ids at or past the bound) is dict-interned, and the
  first such id freezes the identity universe without allocating per slot;
* ``intern()`` and ``intern_column()`` agree id for id on every input, so
  codes never depend on how a stream is cut into batches;
* a stream lists exactly the objects some applied batch carried --
  never the ids of a ``reject_batch`` rollback, of a pre-encoded batch that
  was never fed, or of identity-mode gaps -- in its listings, snapshots and
  journal recovery; int ids list in ascending order;
* neither a lone huge id nor a sparse recording session allocates state
  per never-fed slot.
"""

from __future__ import annotations

import pickle
import random
import tracemalloc
import zlib

import pytest

from repro.engine import (
    HAVE_NUMPY,
    EncodedBatch,
    EnforcementError,
    HistoryCheckerEngine,
    ObjectInterner,
    SnapshotError,
)
from repro.engine import snapshot as snapshot_wire
from repro.engine.batch import IDENTITY_LIMIT
from repro.workloads import banking

KINDS = ("fused", "vector") if HAVE_NUMPY else ("fused",)

#: Admissible from every account's initial state under ``checking``.
OPEN = banking.ROLE_INTEREST
CLOSE = banking.EMPTY_ROLE_SET
ALIEN = frozenset({"NOT_A_ROLE"})


def _engine(kind):
    engine = HistoryCheckerEngine(kernel=kind)
    engine.add_spec("checking", banking.checking_role_inventory())
    return engine


def _listing(stream):
    return stream.objects(), set(stream.verdicts("checking"))


# --------------------------------------------------------------------------- #
# Phantom objects (both reproduced at the parent of identity ingest)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_reject_batch_rollback_leaves_no_phantom_object(kind):
    engine = _engine(kind)
    stream = engine.open_stream()
    stream.feed_events([("a", OPEN)], enforce=True)
    with pytest.raises(EnforcementError):
        stream.feed_events([("ghost", ALIEN)], enforce=True, policy="reject_batch")
    stream.feed_events([("b", OPEN)], enforce=True)
    assert stream.events_seen == 2
    assert _listing(stream) == (("a", "b"), {"a", "b"})
    restored = engine.restore_stream(stream.snapshot())
    assert _listing(restored) == (("a", "b"), {"a", "b"})


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("unfed, fed", [("x", "y"), (7, 2)])
def test_pre_encoded_batch_never_fed_leaves_no_phantom_object(kind, unfed, fed):
    engine = _engine(kind)
    stream = engine.open_stream()
    engine.encode_events([(unfed, OPEN)], objects=stream.object_interner)
    stream.feed_events([(fed, OPEN)])
    assert _listing(stream) == ((fed,), {fed})
    assert engine.restore_stream(stream.snapshot()).objects() == (fed,)


@pytest.mark.parametrize("kind", KINDS)
def test_refused_objects_are_not_listed_by_any_session_shape(kind, tmp_path):
    # An object whose every event the gate refuses was never fed: the
    # in-memory, recording and journaled sessions all agree on that.
    engine = _engine(kind)
    events = [("a", OPEN), ("doomed", ALIEN), ("b", OPEN)]
    plain = engine.open_stream()
    recording = engine.open_stream(record=True)
    durable = engine.open_durable_stream(tmp_path / "wal")
    for session in (plain, recording, durable):
        assert int(session.feed_events(events, enforce=True)) == 2
    assert plain.objects() == recording.objects() == durable.stream.objects() == ("a", "b")
    durable.close()
    assert _engine(kind).recover_stream(tmp_path / "wal").stream.objects() == ("a", "b")


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
    engine = _engine("fused")
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
    engine = _engine("fused")
    stream = engine.open_stream()
    stream.feed_events([(0, OPEN), (2, OPEN)])
    with pytest.raises(SnapshotError):
        engine.restore_stream(_reframed(stream.snapshot(), edit))


# --------------------------------------------------------------------------- #
# Identity mode
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_int_ids_with_gaps_list_ascending_and_only_when_fed(kind):
    engine = _engine(kind)
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
    engine = _engine("fused")
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


def test_negative_ids_are_dict_interned_after_the_identity_prefix():
    interner = _twins([[3, -1, 5], [-1, 1]])
    assert interner.intern_column([3, -1, 5, 1]) == [3, 4, 5, 1]
    assert interner.object(4) == -1 and interner.object(5) == 5
    assert interner.to_snapshot() == ("objects", [0, 1, 2, 3, -1, 5])


def test_bool_and_numpy_ints_name_the_int_they_equal():
    interner = _twins([[True, 0, False]])
    assert interner.to_snapshot() == ("dense", 2)
    assert interner.code_of(1) == interner.code_of(True) == 1
    assert type(interner.object(1)) is int
    if HAVE_NUMPY:
        import numpy as np

        interner = _twins([[np.int64(3), np.uint8(1)], [np.int64(3)]])
        assert interner.to_snapshot() == ("dense", 4)
        assert type(interner.object(3)) is int


def test_floats_equal_to_an_int_id_name_it_and_others_are_dict_ids():
    interner = _twins([[0, 1, 2], [2.0, 2.5, 1.0], [2.5]])
    assert interner.intern_column([2, 2.0, 2.5]) == [2, 2, 3]
    assert interner.object(3) == 2.5
    # Before any int id, a float that is not an int starts dict mode.
    assert _twins([[0.5, 0]]).to_snapshot() == ("objects", [0.5, 0])


def test_ids_past_int64_fall_back_to_dict_mode():
    interner = _twins([[2**63, 1], [2**64 + 5, 2**63]])
    assert interner.to_snapshot() == ("objects", [2**63, 1, 2**64 + 5])


def test_mixed_int_and_str_columns():
    interner = _twins([[0, "a", 1, "b", 2]])
    assert interner.intern_column([0, "a", 1, "b", 2]) == [0, 1, 2, 3, 4]
    assert interner.code_of("b") == 3 and interner.code_of("zz") == -1


@pytest.mark.parametrize("kind", KINDS)
def test_every_id_shape_matches_a_dict_keyed_oracle(kind):
    spec = banking.checking_role_inventory().automaton.determinize()
    odd = [7, 0, True, 2.0, 2.5, -3, 2**63, "acct", 10**12, 7.0, 5]
    if HAVE_NUMPY:
        import numpy as np

        odd += [np.int64(5), np.uint16(8)]
    rng = random.Random(0x1D)
    for case in range(40):
        events = [(rng.choice(odd), rng.choice(banking.ROLE_SETS)) for _ in range(12)]
        histories = {}
        for object_id, symbol in events:
            histories.setdefault(object_id, []).append(symbol)
        stream = _engine(kind).open_stream()
        cut = rng.randrange(len(events) + 1)
        stream.feed_events(events[:cut])
        stream.feed_events(events[cut:])
        expected = {o: spec.accepts(history) for o, history in histories.items()}
        assert stream.verdicts("checking") == expected, (case, events)
        assert set(stream.objects()) == set(histories), (case, events)


def test_intern_agrees_with_intern_column_on_random_inputs():
    pool = [0, 1, 2, 3, 5, 8, 13, 40, -1, "a", "b", 2.0, 0.5, True, 2**70, IDENTITY_LIMIT]
    rng = random.Random(0xA9)
    for _ in range(300):
        column = [rng.choice(pool) for _ in range(rng.randrange(1, 10))]
        cuts = sorted(rng.sample(range(1, len(column) + 1), rng.randrange(1, len(column) + 1)))
        pieces, start = [], 0
        for cut in cuts:
            pieces.append(column[start:cut])
            start = cut
        _twins(pieces)


# --------------------------------------------------------------------------- #
# The memory bound
# --------------------------------------------------------------------------- #
def test_the_identity_bound_is_a_fixed_constant():
    below = ObjectInterner()
    below.intern_column([IDENTITY_LIMIT - 1])
    assert below.to_snapshot() == ("dense", IDENTITY_LIMIT)
    at = ObjectInterner()
    assert at.intern_column([IDENTITY_LIMIT]) == [0]
    assert at.to_snapshot() == ("objects", [IDENTITY_LIMIT])


def _peak_bytes(action):
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS)
def test_a_lone_huge_id_allocates_no_per_slot_state(kind):
    engine = _engine(kind)
    stream = engine.open_stream()
    stream.feed_events([])  # build the kernel outside the measurement
    peak = _peak_bytes(lambda: stream.feed_events([(10**12, OPEN)]))
    assert stream.object_interner.to_snapshot() == ("objects", [10**12])
    assert stream.objects() == (10**12,)
    assert peak < 1 << 20, f"feeding one id allocated {peak} bytes"


@pytest.mark.parametrize("kind", KINDS)
def test_recording_with_sparse_ids_allocates_no_list_per_unfed_slot(kind):
    engine = _engine(kind)
    stream = engine.open_stream(record=True)
    stream.feed_events([])
    high = 1_000_000
    peak = _peak_bytes(lambda: stream.feed_events([(0, OPEN), (high, OPEN), (high, CLOSE)]))
    # Per slot: a kernel column entry (8 bytes at most, briefly twice while
    # the fused column grows) plus a presence byte; a list per unfed slot
    # would cost over 60 bytes each.
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
    engine = _engine("fused")
    stream = engine.open_stream()
    stream.feed_events(EncodedBatch.from_events([(3, OPEN)], engine.alphabet))
    stream.feed_events([(1, OPEN), (3, CLOSE)])
    assert stream.objects() == (1, 3)
