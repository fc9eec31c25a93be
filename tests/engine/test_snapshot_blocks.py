"""Dict-mode object ids snapshot in fixed-size blocks, each pickled once.

The contract under test:

* a dict-mode :class:`~repro.engine.batch.ObjectInterner` serializes as
  ``("blocks", universe, blocks)``: its dict ids in code order,
  :data:`~repro.engine.batch.SNAPSHOT_BLOCK` to a pickled block, the
  identity prefix as its size alone;
* a completed block is pickled once and reused by every later snapshot, and
  restore seeds that cache from the wire blocks, so a checkpoint pickles
  only the open tail block;
* snapshot -> restore -> snapshot reproduces the body at and around block
  boundaries, after an identity prefix, while a session grows and for
  recording sessions;
* bodies in the older ``("objects", every id)`` form still restore;
* a block that decodes to anything but a list, or names a class outside
  builtins and ``repro``, is corruption (:class:`SnapshotError`);
* so is a kernel group payload that leaves a spec out or names it twice,
  lists a state of the wrong width or with a component outside its spec's
  table, or carries a column entry outside its states or past the interner;
* a group payload is written as the kernel holds it -- the group's whole
  ``decode`` list and the live state column, uncompressed in the narrowest
  of ``B``/``H``/``q`` -- and the older form (occupied states only, remapped
  indices, a zlib-compressed column) still restores to the same verdicts,
  the carry counting the occupied states either way.
"""

from __future__ import annotations

import decimal
import pickle
import zlib
from array import array

import pytest

from repro.engine import HistoryCheckerEngine, SnapshotError
from repro.engine import snapshot as snapshot_wire
from repro.engine.batch import SNAPSHOT_BLOCK, _unpack_column
from repro.formal.nfa import NFA
from repro.obs import MetricsRegistry
from repro.workloads import banking, generators

OPEN = banking.ROLE_INTEREST
CLOSE = banking.EMPTY_ROLE_SET


def _engine():
    engine = HistoryCheckerEngine()
    engine.add_spec("checking", banking.checking_role_inventory())
    return engine


def _events(keys):
    """Two events for every third key, one for the rest."""
    events = [(key, OPEN) for key in keys]
    events += [(key, CLOSE) for key in keys[::3]]
    return events


def _body(blob):
    return pickle.loads(blob[len(snapshot_wire.MAGIC) + snapshot_wire._HEADER.size :])


def _reframed(blob, edit):
    """``blob`` with its body rewritten by ``edit`` (header and CRC redone)."""
    body = _body(blob)
    edit(body)
    payload = pickle.dumps(body, protocol=4)
    header = snapshot_wire._HEADER.pack(
        snapshot_wire.FORMAT_VERSION, len(payload), zlib.crc32(payload)
    )
    return snapshot_wire.MAGIC + header + payload


def _decoded(blocks):
    return [o for block in blocks for o in snapshot_wire.restricted_loads(block)]


def _same_session(restored, stream):
    assert restored.objects() == stream.objects()
    assert restored.all_verdicts() == stream.all_verdicts()
    assert restored.events_seen == stream.events_seen


# --------------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "count", [SNAPSHOT_BLOCK - 1, SNAPSHOT_BLOCK, SNAPSHOT_BLOCK + 1, 2 * SNAPSHOT_BLOCK + 1]
)
def test_round_trip_at_block_boundaries(count):
    engine = _engine()
    stream = engine.open_stream()
    keys = [f"acct-{index}" for index in range(count)]
    stream.feed_events(_events(keys))
    blob = stream.snapshot()
    kind_tag, universe, blocks = _body(blob)["objects"]
    assert (kind_tag, universe) == ("blocks", 0)
    full, tail = divmod(count, SNAPSHOT_BLOCK)
    sizes = [len(snapshot_wire.restricted_loads(block)) for block in blocks]
    assert sizes == [SNAPSHOT_BLOCK] * full + ([tail] if tail else [])
    assert _decoded(blocks) == keys
    restored = engine.restore_stream(blob)
    _same_session(restored, stream)
    # The completed blocks came off the wire into the cache as they were.
    assert restored.object_interner._blocks == list(blocks[:full])
    assert _body(restored.snapshot()) == _body(blob)
    # Both sessions stay in step once they grow past the restored blocks.
    more = _events([f"late-{index}" for index in range(SNAPSHOT_BLOCK // 2)] + keys[:5])
    stream.feed_events(more)
    restored.feed_events(more)
    _same_session(restored, stream)
    assert _body(restored.snapshot()) == _body(stream.snapshot())


def test_identity_prefix_then_string_ids_lists_no_range():
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([(0, OPEN), (7, OPEN), (3, OPEN)])
    keys = [f"acct-{index}" for index in range(SNAPSHOT_BLOCK + 5)]
    stream.feed_events(_events(keys) + [(5, OPEN), (10**9, OPEN)])
    _kind, universe, blocks = stream.object_interner.to_snapshot()
    # The identity prefix ships as its size; a gap id (5) keeps its own code.
    assert universe == 8 and _decoded(blocks) == keys + [10**9]
    blob = stream.snapshot()
    restored = engine.restore_stream(blob)
    _same_session(restored, stream)
    assert restored.object_interner.code_of(5) == 5
    assert restored.object_interner.code_of(10**9) == 8 + len(keys)
    assert _body(restored.snapshot()) == _body(blob)


def test_repeated_snapshots_pickle_only_the_open_tail_block(monkeypatch):
    engine = _engine()
    stream = engine.open_stream()
    pickled = []
    dumps = pickle.dumps

    def counting(obj, *args, **kwargs):
        if type(obj) is list:  # an id block; the body itself is a dict
            pickled.append(len(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting)
    step = 700
    previous = None
    for round_ in range(6):
        keys = [f"r{round_}-{index}" for index in range(step)]
        stream.feed_events(_events(keys))
        pickled.clear()
        _kind, _universe, blocks = stream.object_interner.to_snapshot()
        count = step * (round_ + 1)
        done_before = 0 if previous is None else step * round_ // SNAPSHOT_BLOCK
        fresh = count // SNAPSHOT_BLOCK - done_before
        tail = [count % SNAPSHOT_BLOCK] if count % SNAPSHOT_BLOCK else []
        assert pickled == [SNAPSHOT_BLOCK] * fresh + tail, round_
        if previous is not None:
            # Completed blocks are the very same cached bytes objects.
            assert all(a is b for a, b in zip(blocks[:done_before], previous))
        previous = blocks
    # A restored session re-pickles none of the blocks it was sent.
    restored = engine.restore_stream(stream.snapshot())
    pickled.clear()
    restored.snapshot()
    assert pickled == [(step * 6) % SNAPSHOT_BLOCK]


def test_repeated_checkpoints_while_the_session_grows_recover(tmp_path):
    engine = _engine()
    durable = engine.open_durable_stream(tmp_path, checkpoint_every=None)
    for round_ in range(5):
        keys = [f"r{round_}-{index}" for index in range(450)]
        durable.feed_events(_events(keys), enforce=True)
        durable.checkpoint()
        # Re-feeding a known id and a new one lands in the next segment.
        durable.feed_events([(keys[0], OPEN), (f"solo-{round_}", OPEN)], enforce=True)
    live = durable.stream
    durable.close()
    recovered = _engine().recover_stream(tmp_path)
    _same_session(recovered.stream, live)
    recovered.close()


def test_recording_session_round_trip():
    engine = _engine()
    stream = engine.open_stream(record=True)
    keys = [f"acct-{index}" for index in range(SNAPSHOT_BLOCK + 3)]
    stream.feed_events(_events(keys))
    blob = stream.snapshot()
    restored = engine.restore_stream(blob)
    _same_session(restored, stream)
    for key in (keys[0], keys[SNAPSHOT_BLOCK], keys[-1]):
        assert restored.history(key) == stream.history(key)
    assert _body(restored.snapshot()) == _body(blob)


# --------------------------------------------------------------------------- #
# Older bodies
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("prefix", [0, 4])
def test_bodies_in_the_objects_form_still_restore(prefix):
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events([(index, OPEN) for index in range(prefix)])
    stream.feed_events(_events([f"acct-{index}" for index in range(SNAPSHOT_BLOCK + 2)]))

    def as_objects_form(body):
        kind, universe, blocks = body["objects"]
        body["objects"] = ("objects", list(range(universe)) + _decoded(blocks))

    restored = engine.restore_stream(_reframed(stream.snapshot(), as_objects_form))
    _same_session(restored, stream)
    late = [("late", OPEN), ("acct-3", CLOSE), (prefix + 1, OPEN)]
    stream.feed_events(late)
    restored.feed_events(late)
    _same_session(restored, stream)


# --------------------------------------------------------------------------- #
# Corrupt blocks
# --------------------------------------------------------------------------- #
def _blocks(*blocks, universe=0):
    def edit(body):
        body["objects"] = ("blocks", universe, blocks)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _blocks(pickle.dumps(("acct-0", "acct-1"))),  # a tuple, not a list
        _blocks(pickle.dumps({"acct-0": 0})),
        _blocks(pickle.dumps(["acct-0"]), pickle.dumps("acct-1")),
        _blocks(pickle.dumps([decimal.Decimal("1.5")])),  # a class outside builtins/repro
        _blocks(b"not a pickle"),
        _blocks(7),
        _blocks(pickle.dumps(["acct-0"]), pickle.dumps(["acct-0"])),  # one id twice
        _blocks(pickle.dumps(["acct-0"]), universe=-1),
    ],
)
def test_corrupt_blocks_raise_snapshot_error(edit):
    engine = _engine()
    stream = engine.open_stream()
    stream.feed_events(_events(["acct-0", "acct-1"]))
    with pytest.raises(SnapshotError):
        engine.restore_stream(_reframed(stream.snapshot(), edit))


# --------------------------------------------------------------------------- #
# Corrupt group payloads
# --------------------------------------------------------------------------- #
#: Per edit of a six-spec, one-group session's payload, the rule it breaks.
_PAYLOAD_RULES = {
    "no-groups": "no group payload names",
    "spec-dropped": "no group payload names",
    "spec-twice": "group payload 1 names spec",
    "negative-component": "group payload 0 lists a .* component outside",
    "extra-component": "group payload 0 lists a state that is not 6 components wide",
    "negative-index": r"group payload 0 has a column entry that is not an index in \[0, ",
    "column-past-interner": "group payload 0 has 53 column entries, not 50",
}


def _payload_edit(kind):
    """An edit of the first kernel group payload (column edits rewrite it
    as an uncompressed ``q`` column)."""

    def edit(body):
        groups = body["groups"]
        group = groups[0]
        names, states = group["names"], group["states"]
        if kind == "no-groups":
            groups.clear()
        elif kind == "spec-dropped":
            group.update(names=names[1:], states=[state[1:] for state in states])
        elif kind == "spec-twice":
            groups.append(dict(group, names=names[:1], states=[state[:1] for state in states]))
        elif kind == "negative-component":
            states[0] = (-1, *states[0][1:])
        elif kind == "extra-component":
            states[0] = (*states[0], 0)
        else:
            values = _unpack_column(group["column"])
            if kind == "negative-index":
                values[0] = -1
            else:  # three entries past the interner
                values += values[-3:]
            group["column"] = ("q", 0, array("q", values).tobytes())

    return edit


@pytest.mark.parametrize("kind", list(_PAYLOAD_RULES))
def test_corrupt_group_payloads_raise_snapshot_error(kind):
    _histories, events, suite = generators.conforming_banking_stream(seed=7, objects=50)
    engine = HistoryCheckerEngine()
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    stream = engine.open_stream()
    stream.feed_events(events)
    assert len(_body(stream.snapshot())["groups"]) == 1
    with pytest.raises(SnapshotError, match=_PAYLOAD_RULES[kind]):
        engine.restore_stream(_reframed(stream.snapshot(), _payload_edit(kind)))


# --------------------------------------------------------------------------- #
# Group payloads as the kernel holds them
# --------------------------------------------------------------------------- #
TRANSLATIONS = "repro_engine_snapshot_state_translations_total"


def _banking_session(product_cap=None):
    _histories, events, suite = generators.conforming_banking_stream(seed=7, objects=300)
    caps = {} if product_cap is None else {"product_cap": product_cap}
    engine = HistoryCheckerEngine(obs=MetricsRegistry("payloads"), **caps)
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    return engine, events


def _counter_session():
    """One 300-state modular counter: ``s0`` counts, ``s1`` holds."""
    n = 300
    transitions = {(state, "s0"): {(state + 1) % n} for state in range(n)}
    transitions.update({(state, "s1"): {state} for state in range(n)})
    engine = HistoryCheckerEngine(obs=MetricsRegistry("payloads"))
    engine.add_spec("count", NFA(range(n), {"s0", "s1"}, transitions, {0}, {0}))
    # Even counts only: states past 255 are occupied, half of all are not.
    events = [(f"c{o}", "s0") for o in range(0, 400, 2) for _ in range(o * 7 % n)]
    return engine, events + [(f"c{o}", "s1") for o in range(0, 400, 6)]


#: Setup -> (session builder, group sizes, packed typecode per group).
_SETUPS = {
    "default-cap": (_banking_session, [26], "B"),
    "cap-8": (lambda: _banking_session(product_cap=8), [7, 6, 5, 7], "B"),
    "uint16-counter": (_counter_session, [300], "H"),
}


def _as_older_form(body):
    """The pre-change payload: occupied states only, indices remapped into
    them, the column zlib-compressed."""
    for group in body["groups"]:
        column = _unpack_column(group["column"])
        occupied = sorted(set(column))
        position = {state: index for index, state in enumerate(occupied)}
        group["states"] = [group["states"][state] for state in occupied]
        typecode = "B" if len(occupied) <= 0x100 else "H"
        raw = array(typecode, [position[state] for state in column]).tobytes()
        group["column"] = (typecode, 1, zlib.compress(raw, 1))


@pytest.mark.parametrize("setup", list(_SETUPS))
def test_group_payloads_are_the_kernel_columns_and_the_older_form_restores(setup):
    build, sizes, typecode = _SETUPS[setup]
    engine, events = build()
    stream = engine.open_stream()
    stream.feed_events(events)
    blob = stream.snapshot()
    groups, kernel = _body(blob)["groups"], stream._kernel
    assert [len(group["states"]) for group in groups] == sizes
    occupied = 0
    for group, kernel_group, column in zip(groups, kernel.groups, stream._columns):
        assert group["column"][:2] == (typecode, 0)
        assert _unpack_column(group["column"]) == column.tolist()
        assert group["states"] == kernel_group.decode
        occupied += len(set(column.tolist()))
    expected = stream.all_verdicts()

    def translations():
        return engine.stats()["metrics"][TRANSLATIONS]

    for restore_blob in (blob, _reframed(blob, _as_older_form)):
        before = translations()
        restored = engine.restore_stream(restore_blob)
        assert restored.all_verdicts() == expected
        # The carry counts the occupied states, not the listed ones.
        assert translations() - before == occupied
    older = _body(_reframed(blob, _as_older_form))["groups"]
    assert all(group["column"][1] == 1 for group in older)
    assert sum(len(group["states"]) for group in older) == occupied < sum(sizes)
