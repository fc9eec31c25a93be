"""Write-ahead journaling and crash recovery for streaming sessions.

A :class:`repro.engine.engine.StreamChecker` is pure in-memory state: one
process crash loses every per-object cursor accumulated over 10⁶+ events.
:class:`DurableStream` makes the session crash-durable with the classic
WAL + checkpoint pair, recovering from the *delta since the last consistent
point* instead of replaying history:

* every fed batch is appended to an **event journal** first (write-ahead)
  and applied to the in-memory session second, so the durable prefix is
  always at least what the session has answered;
* every ``checkpoint_every`` events (and on demand) the session's
  :meth:`~repro.engine.engine.StreamChecker.snapshot` is written
  atomically and the journal **rotates** to a fresh segment, so recovery
  replays one segment tail, not the stream's life;
* :func:`recover` (``engine.recover_stream(directory)``) restores the
  newest *valid* checkpoint -- corrupt ones fall back to the retained
  older generation -- and replays the journal tail.  A torn or bit-flipped
  tail record is detected by its CRC frame, cleanly truncated and counted,
  never crashed on.

On-disk layout (all under one directory)::

    wal-<seq>.log     journal segments, appended in seq order
    ckpt-<seq>.snap   checkpoints; ckpt-N captures the state at the
                      instant segment N starts

Segment format::

    b"RWAL"  ·  >H file version  ·  framed records

    frame   = >I body length  ·  >I body crc32  ·  >B record type  ·  body
    type 0  = segment header: seq, spec names, record flag, and the FULL
              symbol table at segment start
    type 1  = one event batch: the packed dense id/code columns plus the
              symbol-table and object-id-space deltas since the previous
              record

Bodies are pickled and decoded through the snapshot module's restricted
unpickler, so a crafted journal cannot smuggle a ``__reduce__`` gadget any
more than a crafted snapshot can.

Replay is exact by construction: symbol and object-id interning are
append-only and deterministic, so the concatenated deltas rebuild the
*writer's* code spaces even when the recovering engine's own alphabet
assigns different codes (each segment carries its full symbol table, and
batch codes are re-interned through it).  Because a recovered engine's
code space may therefore differ from the journal's, recovery always ends
by checkpointing and rotating -- one segment, one code space.

Durability levels: appends are flushed to the OS on every batch (a process
crash -- the failure mode the chaos suite injects -- loses nothing);
``fsync=True`` additionally syncs the file per batch, extending the
guarantee to power loss at a measurable throughput cost.  Checkpoints are
always written tmp + fsync + ``os.replace``, so a crash mid-checkpoint
leaves the previous generation intact.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.engine import vector
from repro.engine.batch import (
    COLUMN_WIRE_LIMIT,
    EncodedBatch,
    _unpack_column,
)
from repro.engine.snapshot import SnapshotError, _RestrictedUnpickler
from repro.testing.faults import fire as _fire

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
_FILE_HEADER = WAL_MAGIC + struct.pack(">H", WAL_VERSION)
_FRAME = struct.Struct(">IIB")

#: Record types.
RT_SEGMENT = 0
RT_EVENTS = 1

#: Sanity bound on a framed record body; a flipped length bit claiming
#: more reads as a torn tail instead of a giant allocation.
_MAX_RECORD = 1 << 28

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_CHECKPOINT_PREFIX = "ckpt-"
_CHECKPOINT_SUFFIX = ".snap"


class JournalError(RuntimeError):
    """An unrecoverable journal condition: no valid checkpoint, a corrupt
    record *before* the journal tail, or misuse of a journal directory."""


def _segment_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"{_SEGMENT_PREFIX}{seq:010d}{_SEGMENT_SUFFIX}")


def _checkpoint_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"{_CHECKPOINT_PREFIX}{seq:010d}{_CHECKPOINT_SUFFIX}")


def _listed_seqs(directory: str, prefix: str, suffix: str) -> List[int]:
    seqs = []
    for name in os.listdir(directory):
        if name.startswith(prefix) and name.endswith(suffix):
            middle = name[len(prefix) : -len(suffix)]
            if middle.isdigit():
                seqs.append(int(middle))
    return sorted(seqs)


def _frame_record(rtype: int, body: bytes) -> bytes:
    return _FRAME.pack(len(body), zlib.crc32(body), rtype) + body


def _wire_column(column, bound: int) -> Tuple[str, int, bytes]:
    """An ``array('q')`` of ints below ``bound`` as raw narrowest-typecode bytes.

    The bound -- the id space or the alphabet size, both known -- stands in
    for a max() scan, and numpy narrows at memcpy speed; without numpy the
    int64 bytes ship as they are.  No zlib: WAL records only live until the
    next checkpoint prunes them.  The tuple shape is ``_pack_column``'s, so
    replay decodes any typecode through ``_unpack_column`` and its bounds.
    """
    if not vector.HAVE_NUMPY or bound > 1 << 32:
        return ("q", 0, column.tobytes())
    typecode = "B" if bound <= 1 << 8 else ("H" if bound <= 1 << 16 else "I")
    return (typecode, 0, vector.np.frombuffer(column, vector.np.int64).astype(typecode).tobytes())


def _decode_body(body: bytes):
    return _RestrictedUnpickler(io.BytesIO(body)).load()


class DurableStream:
    """A :class:`StreamChecker` whose fed events survive a process crash.

    Build one with :meth:`HistoryCheckerEngine.open_durable_stream` (fresh
    directory) or :meth:`HistoryCheckerEngine.recover_stream` (after a
    crash).  The wrapped session is :attr:`stream`; the feed/verdict
    surface is mirrored here so most callers never touch it directly.
    """

    def __init__(
        self,
        stream,
        directory: str,
        seq: int,
        checkpoint_every: Optional[int] = 50_000,
        retain: int = 2,
        fsync: bool = False,
    ) -> None:
        if retain < 1:
            raise ValueError("retain must keep at least one checkpoint generation")
        #: The wrapped in-memory session.
        self.stream = stream
        self.directory = os.fspath(directory)
        self.checkpoint_every = checkpoint_every
        self.retain = retain
        self.fsync = fsync
        self._seq = seq
        self._file = None
        self._closed = False
        #: Events appended to the current segment since its checkpoint.
        self._events_since_checkpoint = 0
        # Code-space watermarks: how much of the alphabet / object-id space
        # the journal has recorded so far.  Deltas are cut against these at
        # append time, which also covers pre-encoded batches whose symbols
        # and objects were interned long before the feed.
        self._symbols_recorded = 0
        self._objects_recorded = 0
        self._counts: Dict[str, int] = {"records": 0, "bytes": 0, "checkpoints": 0}
        #: Torn/corrupt tail records discarded by the recovery that built
        #: this stream (0 for freshly opened ones).
        self.truncated_records = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def seq(self) -> int:
        """The current segment/checkpoint sequence number."""
        return self._seq

    @property
    def events_seen(self) -> int:
        return self.stream.events_seen

    def stats(self) -> Dict[str, int]:
        """Journal-side counters (records/bytes appended, checkpoints)."""
        data = dict(self._counts)
        data["seq"] = self._seq
        data["truncated_records"] = self.truncated_records
        return data

    def close(self) -> None:
        """Flush and close the active segment (idempotent)."""
        self._closed = True
        handle, self._file = self._file, None
        if handle is not None:
            handle.flush()
            handle.close()

    def __enter__(self) -> "DurableStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DurableStream({self.directory!r}, seq={self._seq})"

    def _obs(self):
        return self.stream._engine._obs

    def _handle(self):
        if self._closed:
            raise JournalError("this durable stream is closed")
        if self._file is None:
            raise JournalError("no active journal segment (stream not initialized)")
        return self._file

    def _write(self, record: bytes) -> None:
        handle = self._handle()
        handle.write(record)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._counts["records"] += 1
        self._counts["bytes"] += len(record)
        obs = self._obs()
        if obs is not None:
            obs.journal_append_records.inc()
            obs.journal_append_bytes.inc(len(record))

    def _open_segment(self) -> None:
        """Start segment ``self._seq``: file header plus the segment record."""
        engine = self.stream._engine
        alphabet = engine.alphabet
        symbols = [alphabet.symbol(code) for code in range(len(alphabet))]
        body = pickle.dumps(
            {
                "seq": self._seq,
                "names": tuple(self.stream.spec_names),
                "record": self.stream.recording,
                "symbols": symbols,
                "objects": len(self.stream._interner),
            },
            protocol=4,
        )
        self._file = open(_segment_path(self.directory, self._seq), "xb")
        self._file.write(_FILE_HEADER)
        self._write(_frame_record(RT_SEGMENT, body))
        self._symbols_recorded = len(symbols)
        self._objects_recorded = len(self.stream._interner)
        self._events_since_checkpoint = 0

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #
    def feed(self, object_id, symbol) -> None:
        """Durably consume a single event."""
        self.feed_events(((object_id, symbol),))

    def feed_events(self, events, enforce: bool = False, policy: str = "reject_event") -> int:
        """Append a batch to the journal, then apply it to the session.

        Accepts the same shapes as :meth:`StreamChecker.feed_events` (raw
        ``(object id, symbol)`` pairs or a pre-encoded
        :class:`repro.engine.batch.EncodedBatch`).  Returns the event
        count.  Crossing ``checkpoint_every`` appended events triggers an
        automatic :meth:`checkpoint`.

        ``enforce=True`` runs the transactional admissibility gate *before*
        anything touches the journal: the batch is screened first, the WAL
        appends **only the admitted events**, and the session state commits
        after the append -- so replaying the journal reproduces the
        enforced session exactly, and a ``reject_batch``
        :class:`repro.engine.diagnostics.EnforcementError` leaves both the
        WAL and the session untouched.  The return value is the enforced
        feed's :class:`repro.engine.diagnostics.EnforcementReport`.
        """
        stream = self.stream
        engine = stream._engine
        if isinstance(events, EncodedBatch):
            stream._adopt(events)
            batch = events
        else:
            batch = EncodedBatch.from_events(events, engine.alphabet, stream._interner)
        if enforce:
            count = stream._feed_enforced(
                batch,
                policy,
                pre_commit=lambda admitted: (
                    self._append_batch(admitted) if len(admitted) else None
                ),
            )
        else:
            if len(batch):
                self._append_batch(batch)
            count = stream.feed_events(batch)
        self._events_since_checkpoint += int(count)
        if (
            self.checkpoint_every is not None
            and self._events_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return count

    def _append_batch(self, batch: EncodedBatch) -> None:
        engine = self.stream._engine
        alphabet = engine.alphabet
        symbol_delta = [
            alphabet.symbol(code) for code in range(self._symbols_recorded, len(alphabet))
        ]
        interner = self.stream._interner
        body = pickle.dumps(
            {
                "symbols": symbol_delta,
                "objects": interner.tail(self._objects_recorded),
                "objects_before": self._objects_recorded,
                "count": len(batch),
                # `batch.ids`/`batch.codes` are the cached ``array('q')``
                # columns the vectorized kernel is about to use anyway;
                # narrowing them by their known bounds cuts every copy,
                # the CRC and the page-cache traffic a checkpoint's fsync
                # later flushes (the E27 overhead gate).
                "ids": _wire_column(batch.ids, len(interner)),
                "codes": _wire_column(batch.codes, len(alphabet)),
            },
            protocol=4,
        )
        record = _frame_record(RT_EVENTS, body)
        # The chaos suites corrupt in-flight records here ("flip"/"truncate"
        # actions); disarmed, this is one global is-None check.
        record = _fire("journal.append", record)
        self._write(record)
        self._symbols_recorded = len(alphabet)
        self._objects_recorded = len(interner)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> str:
        """Write a checkpoint and rotate to a fresh segment; returns its path.

        The snapshot is written tmp + fsync + ``os.replace`` (atomic on
        POSIX), the journal rotates to segment ``seq + 1``, and generations
        older than the ``retain`` newest checkpoints are pruned.
        """
        next_seq = self._seq + 1
        blob = self.stream.snapshot()
        blob = _fire("journal.checkpoint", blob)
        path = _checkpoint_path(self.directory, next_seq)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        handle, self._file = self._file, None
        if handle is not None:
            handle.flush()
            handle.close()
        self._seq = next_seq
        self._open_segment()
        self._counts["checkpoints"] += 1
        obs = self._obs()
        if obs is not None:
            obs.journal_checkpoints.inc()
        self._prune()
        return path

    def _prune(self) -> None:
        """Drop checkpoint generations older than the ``retain`` newest."""
        checkpoints = _listed_seqs(self.directory, _CHECKPOINT_PREFIX, _CHECKPOINT_SUFFIX)
        if len(checkpoints) <= self.retain:
            return
        floor = checkpoints[-self.retain]
        for seq in checkpoints:
            if seq < floor:
                _remove_quiet(_checkpoint_path(self.directory, seq))
        for seq in _listed_seqs(self.directory, _SEGMENT_PREFIX, _SEGMENT_SUFFIX):
            if seq < floor:
                _remove_quiet(_segment_path(self.directory, seq))

    # ------------------------------------------------------------------ #
    # Verdict surface (delegation)
    # ------------------------------------------------------------------ #
    def verdict(self, name: str, object_id) -> bool:
        return self.stream.verdict(name, object_id)

    def verdicts(self, name: str):
        return self.stream.verdicts(name)

    def all_verdicts(self):
        return self.stream.all_verdicts()

    def explain(self, name: str, object_id, history=None):
        return self.stream.explain(name, object_id, history=history)


def _remove_quiet(path: str) -> None:
    try:
        os.remove(path)
    except OSError:  # pragma: no cover - raced with another pruner
        pass


def open_durable(
    engine,
    directory,
    names=None,
    record: bool = False,
    checkpoint_every: Optional[int] = 50_000,
    retain: int = 2,
    fsync: bool = False,
) -> DurableStream:
    """A fresh durable session journaling into an empty ``directory``.

    The directory is created if missing and must not already hold journal
    files (recover those with :func:`recover` instead of clobbering them).
    An initial checkpoint (seq 0) and segment are written immediately, so
    the directory is recoverable from the first instant.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    if _listed_seqs(directory, _CHECKPOINT_PREFIX, _CHECKPOINT_SUFFIX) or _listed_seqs(
        directory, _SEGMENT_PREFIX, _SEGMENT_SUFFIX
    ):
        raise JournalError(
            f"{directory!r} already holds a journal; use engine.recover_stream(directory) "
            f"to resume it"
        )
    stream = engine.open_stream(names, record=record)
    durable = DurableStream(
        stream,
        directory,
        seq=0,
        checkpoint_every=checkpoint_every,
        retain=retain,
        fsync=fsync,
    )
    _write_checkpoint_blob(directory, 0, stream.snapshot())
    durable._open_segment()
    return durable


def _write_checkpoint_blob(directory: str, seq: int, blob: bytes) -> None:
    path = _checkpoint_path(directory, seq)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# --------------------------------------------------------------------------- #
# Recovery
# --------------------------------------------------------------------------- #
class _SegmentReader:
    """Iterate a segment's framed records; knows where each record starts.

    ``read()`` returns ``(rtype, body, offset)`` tuples and stops at the
    first malformed frame, leaving :attr:`bad_offset` at its start --
    recovery truncates the file there when the segment is the journal tail.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.bad_offset: Optional[int] = None
        self.bad_reason: Optional[str] = None

    def records(self):
        with open(self.path, "rb") as handle:
            header = handle.read(len(_FILE_HEADER))
            if header != _FILE_HEADER:
                self.bad_offset = 0
                self.bad_reason = "bad file header"
                return
            offset = len(_FILE_HEADER)
            while True:
                frame = handle.read(_FRAME.size)
                if not frame:
                    return  # clean end
                if len(frame) < _FRAME.size:
                    self.bad_offset = offset
                    self.bad_reason = "torn frame header"
                    return
                length, crc, rtype = _FRAME.unpack(frame)
                if length > _MAX_RECORD:
                    self.bad_offset = offset
                    self.bad_reason = "implausible record length"
                    return
                body = handle.read(length)
                if len(body) < length:
                    self.bad_offset = offset
                    self.bad_reason = "torn record body"
                    return
                if zlib.crc32(body) != crc:
                    self.bad_offset = offset
                    self.bad_reason = "record checksum mismatch"
                    return
                yield rtype, body, offset
                offset += _FRAME.size + length


def _replay_segment(stream, reader: _SegmentReader, seq: int, obs) -> Tuple[int, bool]:
    """Apply one segment's batches to ``stream``.

    Returns ``(replayed record count, clean)`` where ``clean`` is False when
    the segment ended at a malformed frame (``reader.bad_offset`` set) or a
    record whose *content* failed validation (also recorded as bad).
    """
    recode: Optional[List[int]] = None
    engine = stream._engine
    alphabet = engine.alphabet
    replayed = 0
    for rtype, body, offset in reader.records():
        try:
            payload = _decode_body(body)
            if rtype == RT_SEGMENT:
                if recode is not None:
                    raise ValueError("segment header not first")
                if payload["seq"] != seq:
                    raise ValueError(f"segment header claims seq {payload['seq']}, file is {seq}")
                recode = [alphabet.intern(symbol) for symbol in payload["symbols"]]
            elif rtype == RT_EVENTS:
                if recode is None:
                    raise ValueError("events before the segment header")
                for symbol in payload["symbols"]:
                    recode.append(alphabet.intern(symbol))
                interner = stream._interner
                if len(interner) != payload["objects_before"]:
                    raise ValueError(
                        f"object-id space out of step: journal recorded "
                        f"{payload['objects_before']}, session holds {len(interner)}"
                    )
                interner.extend_tail(payload["objects"], payload["objects_before"])
                ids = _unpack_column(payload["ids"], limit=COLUMN_WIRE_LIMIT)
                codes = _unpack_column(payload["codes"], limit=COLUMN_WIRE_LIMIT)
                if len(ids) != payload["count"] or len(codes) != payload["count"]:
                    raise ValueError("column lengths disagree with the record count")
                batch = EncodedBatch(ids, list(map(recode.__getitem__, codes)), interner, alphabet)
                if batch.max_id >= len(interner):
                    raise ValueError("an event references an unrecorded object id")
                stream.feed_events(batch)
            else:
                raise ValueError(f"unknown record type {rtype}")
        except (SnapshotError, ValueError, KeyError, IndexError, TypeError) as exc:
            # The frame's CRC held but the content is inadmissible -- treat
            # exactly like a torn frame: stop here, let the caller decide
            # whether "here" is the truncatable tail.
            reader.bad_offset = offset
            reader.bad_reason = f"inadmissible record: {exc}"
            break
        replayed += 1
        if obs is not None:
            obs.journal_replay_records.inc()
            obs.journal_replay_bytes.inc(len(body) + _FRAME.size)
    return replayed, reader.bad_offset is None


def recover(
    engine,
    directory,
    checkpoint_every: Optional[int] = 50_000,
    retain: int = 2,
    fsync: bool = False,
) -> DurableStream:
    """Rebuild a durable session from ``directory`` after a crash.

    Restores the newest checkpoint that parses -- falling back through the
    retained generations on corruption -- replays every journal segment
    from that checkpoint's seq on, truncates a torn/corrupt *tail* (last
    segment only; corruption before the tail is data loss and raises
    :class:`JournalError`), and returns a live :class:`DurableStream` that
    has already re-checkpointed under the recovering engine's code space.

    The recovered ``events_seen`` is exactly the durable prefix: every
    event whose append completed, none that was torn mid-write.
    """
    directory = os.fspath(directory)
    checkpoints = _listed_seqs(directory, _CHECKPOINT_PREFIX, _CHECKPOINT_SUFFIX)
    if not checkpoints:
        raise JournalError(f"{directory!r} holds no checkpoints; nothing to recover")
    obs = engine._obs
    stream = None
    base_seq = None
    for seq in reversed(checkpoints):
        try:
            with open(_checkpoint_path(directory, seq), "rb") as handle:
                blob = handle.read()
            stream = engine.restore_stream(blob)
        except (OSError, SnapshotError):
            continue  # corrupt or unreadable generation; fall back
        base_seq = seq
        break
    if stream is None:
        raise JournalError(
            f"no checkpoint in {directory!r} restores cleanly; the journal is not "
            f"recoverable on this engine"
        )
    segments = [
        seq
        for seq in _listed_seqs(directory, _SEGMENT_PREFIX, _SEGMENT_SUFFIX)
        if seq >= base_seq
    ]
    # No segment at all for the base checkpoint is the crash-between-
    # checkpoint-and-rotate window (nothing fed since the checkpoint);
    # segments that *exist* but skip the base mean lost events.
    if segments and segments[0] != base_seq:
        raise JournalError(
            f"journal segment {base_seq} is missing from {directory!r} but later "
            f"segments exist; events between checkpoints were lost"
        )
    truncated = 0
    for position, seq in enumerate(segments):
        if seq != segments[0] + position:
            raise JournalError(
                f"journal segment {segments[0] + position} is missing from {directory!r}"
            )
        reader = _SegmentReader(_segment_path(directory, seq))
        _replayed, clean = _replay_segment(stream, reader, seq, obs)
        if not clean:
            if position != len(segments) - 1:
                raise JournalError(
                    f"corrupt record before the journal tail (segment {seq}, offset "
                    f"{reader.bad_offset}: {reader.bad_reason}); later segments would "
                    f"be inconsistent"
                )
            # The torn tail of the last segment: drop it cleanly.
            os.truncate(reader.path, reader.bad_offset)
            truncated += 1
            if obs is not None:
                obs.journal_truncated_records.inc()
    if obs is not None:
        obs.stream_recoveries.inc()
    durable = DurableStream(
        stream,
        directory,
        seq=(segments[-1] if segments else base_seq) + 1,
        checkpoint_every=checkpoint_every,
        retain=retain,
        fsync=fsync,
    )
    durable.truncated_records = truncated
    # Re-anchor under this engine's code space: the WAL's codes were the
    # crashed process's; a fresh checkpoint + segment makes every future
    # record self-consistent with the recovering engine.
    _write_checkpoint_blob(directory, durable._seq, stream.snapshot())
    durable._open_segment()
    durable._prune()
    return durable


__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "RT_SEGMENT",
    "RT_EVENTS",
    "JournalError",
    "DurableStream",
    "open_durable",
    "recover",
]
