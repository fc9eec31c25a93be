"""The write-ahead journal: durability, rotation, recovery, corruption.

The invariant under test everywhere: after any crash/corruption scenario,
``recover_stream`` yields verdicts **identical** to an uninterrupted oracle
fed exactly the durable prefix (``events_seen`` of the recovered session).
"""

from __future__ import annotations

import os
import random
import stat

import pytest

from repro.core.rolesets import enumerate_role_sets
from repro.engine import HistoryCheckerEngine, JournalError
from repro.engine.batch import EncodedBatch
from repro.obs.metrics import MetricsRegistry
from repro.testing.faults import corrupt_file, tear_file
from repro.workloads import generators


def _case(seed, objects=8):
    rng = random.Random(seed)
    schema = generators.random_schema(classes=3, rng=rng)
    role_sets = list(enumerate_role_sets(schema))
    specs = {
        f"spec{i}": generators.random_role_set_regex(schema, size=4, rng=rng).to_nfa(role_sets)
        for i in range(2)
    }
    histories = [
        next(generators.random_histories(role_sets, objects=1, mean_length=6, rng=rng))
        for _ in range(objects)
    ]
    events = generators.event_stream(histories, rng=rng)
    return specs, events


def _engine(specs, **kwargs):
    engine = HistoryCheckerEngine(**kwargs)
    for name, nfa in specs.items():
        engine.add_spec(name, nfa)
    return engine


def _feed_batches(durable, events, size=5):
    for start in range(0, len(events), size):
        durable.feed_events(events[start : start + size])


def _oracle(specs, events, prefix=None):
    """Verdicts of an uninterrupted single-process session over a prefix."""
    engine = _engine(specs)
    stream = engine.open_stream()
    stream.feed_events(events if prefix is None else events[:prefix])
    return stream.all_verdicts()


def _files(directory, suffix):
    return sorted(name for name in os.listdir(directory) if name.endswith(suffix))


# --------------------------------------------------------------------------- #
# Happy path
# --------------------------------------------------------------------------- #
def test_durable_stream_recovers_into_a_fresh_engine(tmp_path):
    specs, events = _case(1)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, events)
    fed = durable.events_seen
    durable.close()
    # A brand-new engine: its alphabet will intern the journal's symbols in
    # whatever order replay encounters them, exercising the recode path.
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.events_seen == fed == len(events)
    assert recovered.truncated_records == 0
    assert recovered.all_verdicts() == _oracle(specs, events)


def test_recovered_stream_keeps_accepting_events(tmp_path):
    specs, events = _case(2, objects=10)
    half = len(events) // 2
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, events[:half])
    durable.close()
    recovered = _engine(specs).recover_stream(tmp_path)
    _feed_batches(recovered, events[half:])
    assert recovered.events_seen == len(events)
    assert recovered.all_verdicts() == _oracle(specs, events)
    recovered.close()
    # ... and the continued journal is itself recoverable (second crash).
    second = _engine(specs).recover_stream(tmp_path)
    assert second.events_seen == len(events)
    assert second.all_verdicts() == _oracle(specs, events)


def test_open_durable_refuses_a_populated_directory(tmp_path):
    specs, events = _case(3)
    engine = _engine(specs)
    engine.open_durable_stream(tmp_path).close()
    with pytest.raises(JournalError, match="already holds a journal"):
        engine.open_durable_stream(tmp_path)


def test_closed_durable_stream_refuses_events(tmp_path):
    specs, events = _case(4)
    durable = _engine(specs).open_durable_stream(tmp_path)
    durable.close()
    durable.close()  # idempotent
    with pytest.raises(JournalError, match="closed"):
        durable.feed_events(events[:3])


def test_closed_durable_stream_refuses_a_checkpoint_before_touching_the_directory(tmp_path):
    specs, events = _case(4)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, events)
    durable.close()
    listing, seq = _files(tmp_path, ""), durable.seq
    with pytest.raises(JournalError, match="this durable stream is closed"):
        durable.checkpoint()
    # No checkpoint, no header-only segment, no open handle, no new seq.
    assert _files(tmp_path, "") == listing
    assert durable.seq == seq
    assert durable._file is None
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.events_seen == len(events)
    assert recovered.all_verdicts() == _oracle(specs, events)
    recovered.close()


def test_context_manager_and_stats(tmp_path):
    specs, events = _case(5)
    with _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None) as durable:
        _feed_batches(durable, events)
        stats = durable.stats()
    assert stats["records"] >= 1  # the segment header at least
    assert stats["bytes"] > 0
    assert stats["seq"] == 0
    assert stats["truncated_records"] == 0
    with pytest.raises(JournalError):
        durable.feed_events(events[:1])


# --------------------------------------------------------------------------- #
# Checkpoint rotation and retention
# --------------------------------------------------------------------------- #
def test_auto_checkpoint_rotates_segments_and_prunes_old_generations(tmp_path):
    specs, events = _case(6, objects=12)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=10, retain=2)
    _feed_batches(durable, events, size=5)
    assert durable.stats()["checkpoints"] >= 2
    assert durable.seq == durable.stats()["checkpoints"]
    checkpoints = _files(tmp_path, ".snap")
    segments = _files(tmp_path, ".log")
    assert len(checkpoints) == 2  # older generations pruned
    # Segments never reach below the retained checkpoint floor.
    floor = checkpoints[0].split("-")[1].split(".")[0]
    assert all(name.split("-")[1].split(".")[0] >= floor for name in segments)
    durable.close()
    recovered = _engine(specs).recover_stream(tmp_path, checkpoint_every=10, retain=2)
    assert recovered.events_seen == len(events)
    assert recovered.all_verdicts() == _oracle(specs, events)


def test_manual_checkpoint_returns_the_snapshot_path(tmp_path):
    specs, events = _case(7)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, events)
    path = durable.checkpoint()
    assert os.path.exists(path)
    assert durable.seq == 1
    # Post-rotation feeds land in the new segment and still recover.
    durable.feed_events(events[:4])
    durable.close()
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.events_seen == len(events) + 4


def test_each_checkpoint_syncs_the_directory_after_its_rename_and_before_pruning(
    tmp_path, monkeypatch
):
    # Until the directory is fsynced, a power loss can undo a rename or a
    # file creation; pruning first could leave no checkpoint generation.
    directory = str(tmp_path)
    calls = []
    real_replace, real_fsync, real_remove = os.replace, os.fsync, os.remove

    def replace(source, target):
        real_replace(source, target)
        calls.append(("replace", os.path.basename(target)))

    def fsync(fd):
        real_fsync(fd)
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            calls.append(("sync", frozenset(os.listdir(directory))))

    def remove(path):
        real_remove(path)
        calls.append(("remove", os.path.basename(path)))

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "remove", remove)
    specs, events = _case(6, objects=12)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None, retain=1)
    for start in range(0, 30, 10):
        _feed_batches(durable, events[start : start + 10])
        durable.checkpoint()
    durable.close()
    recovered = _engine(specs).recover_stream(tmp_path, checkpoint_every=None, retain=1)
    # open_durable (seq 0), three checkpoints (1-3), the recovery's re-anchor (4).
    groups = []
    for call in calls:
        if call[0] == "replace":
            groups.append([])
        groups[-1].append(call)
    assert len(groups) == 5
    for seq, group in enumerate(groups):
        checkpoint, segment = f"ckpt-{seq:010d}.snap", f"wal-{seq:010d}.log"
        assert group[0] == ("replace", checkpoint)
        assert group[1][0] == "sync" and {checkpoint, segment} <= group[1][1]
        removed = group[2:]
        assert all(kind == "remove" for kind, _name in removed)
        expected = set() if seq == 0 else {f"ckpt-{seq - 1:010d}.snap", f"wal-{seq - 1:010d}.log"}
        assert {name for _kind, name in removed} == expected
    assert recovered.events_seen == 30
    recovered.close()


def test_open_durable_syncs_each_directory_it_creates_into_its_parent(tmp_path, monkeypatch):
    # A directory's entry lives in its parent: until the parent is fsynced,
    # a power loss can drop a fresh journal, checkpoint 0 included.
    calls = []
    real_mkdir, real_fsync = os.mkdir, os.fsync

    def mkdir(path, *args, **kwargs):
        real_mkdir(path, *args, **kwargs)
        calls.append(("mkdir", os.fspath(path)))

    def fsync(fd):
        real_fsync(fd)
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            calls.append(("sync", (info.st_dev, info.st_ino)))

    def synced(path):
        info = os.stat(path)
        return ("sync", (info.st_dev, info.st_ino))

    monkeypatch.setattr(os, "mkdir", mkdir)
    monkeypatch.setattr(os, "fsync", fsync)
    specs, _events = _case(7)
    parent, journal = tmp_path / "a", tmp_path / "a" / "b"
    _engine(specs).open_durable_stream(journal).close()
    assert calls == [
        ("mkdir", str(parent)),
        synced(tmp_path),
        ("mkdir", str(journal)),
        synced(parent),
        synced(journal),  # checkpoint 0's own directory sync
    ]

    existing = tmp_path / "existing"
    existing.mkdir()
    calls.clear()
    _engine(specs).open_durable_stream(existing).close()
    assert calls == [synced(existing)]


# --------------------------------------------------------------------------- #
# Corruption: torn and bit-flipped tails, broken checkpoints
# --------------------------------------------------------------------------- #
def test_torn_tail_record_is_truncated_not_fatal(tmp_path):
    specs, events = _case(8, objects=10)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, events, size=3)
    durable.close()
    tear_file(tmp_path / "wal-0000000000.log", drop=7)  # torn mid-record
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.truncated_records == 1
    fed = recovered.events_seen
    assert 0 < fed < len(events)
    assert fed % 3 == 0  # whole batches survive, torn ones vanish
    assert recovered.all_verdicts() == _oracle(specs, events, prefix=fed)


def test_bit_flipped_tail_is_detected_by_crc_and_truncated(tmp_path):
    specs, events = _case(9, objects=10)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, events, size=4)
    durable.close()
    path = tmp_path / "wal-0000000000.log"
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x20  # inside the final record's body: its CRC now lies
    path.write_bytes(bytes(blob))
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.truncated_records == 1
    fed = recovered.events_seen
    assert fed < len(events)
    assert recovered.all_verdicts() == _oracle(specs, events, prefix=fed)
    # The truncated journal is consistent: a second recovery is clean.
    recovered.close()
    again = _engine(specs).recover_stream(tmp_path)
    assert again.events_seen == fed
    assert again.truncated_records == 0


def test_corrupt_latest_checkpoint_falls_back_a_generation(tmp_path):
    specs, events = _case(10, objects=10)
    half = len(events) // 2
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, events[:half])
    durable.checkpoint()
    _feed_batches(durable, events[half:])
    durable.close()
    corrupt_file(tmp_path / "ckpt-0000000001.snap", seed=5)
    # ckpt-1 is garbage; recovery restores ckpt-0 and replays BOTH segments,
    # losing nothing.
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.events_seen == len(events)
    assert recovered.truncated_records == 0
    assert recovered.all_verdicts() == _oracle(specs, events)


def test_no_valid_checkpoint_raises_journal_error(tmp_path):
    specs, events = _case(11)
    durable = _engine(specs).open_durable_stream(tmp_path)
    _feed_batches(durable, events)
    durable.close()
    corrupt_file(tmp_path / "ckpt-0000000000.snap", seed=1)
    with pytest.raises(JournalError, match="restores cleanly"):
        _engine(specs).recover_stream(tmp_path)


def test_empty_directory_raises_journal_error(tmp_path):
    specs, _events = _case(12)
    with pytest.raises(JournalError, match="no checkpoints"):
        _engine(specs).recover_stream(tmp_path)


def _three_generation_journal(tmp_path, specs, events):
    third = len(events) // 3
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None, retain=3)
    _feed_batches(durable, events[:third])
    durable.checkpoint()
    _feed_batches(durable, events[third : 2 * third])
    durable.checkpoint()
    _feed_batches(durable, events[2 * third :])
    durable.close()


def test_missing_middle_segment_is_data_loss_and_raises(tmp_path):
    specs, events = _case(13, objects=12)
    _three_generation_journal(tmp_path, specs, events)
    corrupt_file(tmp_path / "ckpt-0000000002.snap", seed=2)
    corrupt_file(tmp_path / "ckpt-0000000001.snap", seed=2)
    os.remove(tmp_path / "wal-0000000001.log")
    with pytest.raises(JournalError, match="missing"):
        _engine(specs).recover_stream(tmp_path, retain=3)


def test_corruption_before_the_tail_segment_raises(tmp_path):
    specs, events = _case(14, objects=12)
    _three_generation_journal(tmp_path, specs, events)
    corrupt_file(tmp_path / "ckpt-0000000002.snap", seed=3)
    # Recovery falls back to ckpt-1 and must replay wal-1 then wal-2;
    # corruption in wal-1 is NOT a truncatable tail.
    corrupt_file(tmp_path / "wal-0000000001.log", seed=3)
    with pytest.raises(JournalError, match="before the journal tail"):
        _engine(specs).recover_stream(tmp_path, retain=3)


# --------------------------------------------------------------------------- #
# Payload shapes
# --------------------------------------------------------------------------- #
def test_dict_mode_object_ids_journal_and_recover(tmp_path):
    specs, events = _case(15, objects=6)
    named = [(f"acct-{object_id}", symbol) for object_id, symbol in events]
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None)
    _feed_batches(durable, named, size=4)
    durable.close()
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.events_seen == len(named)
    verdicts = recovered.all_verdicts()
    assert set(verdicts["spec0"]) == {name for name, _symbol in named}
    oracle_engine = _engine(specs)
    oracle = oracle_engine.open_stream()
    oracle.feed_events(named)
    assert verdicts == oracle.all_verdicts()


def test_pre_encoded_batches_are_journaled(tmp_path):
    specs, events = _case(16, objects=8)
    engine = _engine(specs)
    durable = engine.open_durable_stream(tmp_path, checkpoint_every=None)
    for start in range(0, len(events), 6):
        batch = EncodedBatch.from_events(
            events[start : start + 6], engine.alphabet, durable.stream.object_interner
        )
        durable.feed_events(batch)
    durable.close()
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.events_seen == len(events)
    assert recovered.all_verdicts() == _oracle(specs, events)


def test_recording_sessions_keep_explain_across_recovery(tmp_path):
    specs, events = _case(17, objects=8)
    durable = _engine(specs).open_durable_stream(tmp_path, checkpoint_every=None, record=True)
    _feed_batches(durable, events)
    expected = {
        name: {obj for obj, ok in verdicts.items() if not ok}
        for name, verdicts in durable.all_verdicts().items()
    }
    durable.close()
    recovered = _engine(specs).recover_stream(tmp_path)
    assert recovered.stream.recording is True
    for name, failing in expected.items():
        reported = {violation.object_id for violation in recovered.stream.explain_all(name)}
        assert reported == failing


# --------------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------------- #
def test_journal_metrics_flow_into_the_registry(tmp_path):
    specs, events = _case(18, objects=10)
    writer_registry = MetricsRegistry()
    durable = _engine(specs, obs=writer_registry).open_durable_stream(
        tmp_path, checkpoint_every=None
    )
    _feed_batches(durable, events[:-8])
    durable.checkpoint()
    _feed_batches(durable, events[-8:], size=4)
    durable.close()
    written = writer_registry.to_dict()
    assert written['repro_journal_records_total{direction="append"}'] >= 2
    assert written['repro_journal_bytes_total{direction="append"}'] > 0
    assert written["repro_journal_checkpoints_total"] == 1

    tear_file(tmp_path / "wal-0000000001.log", drop=3)
    reader_registry = MetricsRegistry()
    recovered = _engine(specs, obs=reader_registry).recover_stream(tmp_path)
    read = reader_registry.to_dict()
    assert read["repro_stream_recoveries_total"] == 1
    assert read['repro_journal_records_total{direction="replay"}'] >= 1
    assert read["repro_journal_truncated_records_total"] == 1
    assert recovered.events_seen == len(events) - 4  # the torn final batch
