"""Checkpoint/restore for streaming monitor sessions.

A :class:`repro.engine.engine.StreamChecker` tracking 10⁵ objects against a
handful of specs is, materially, integer state: dense object ids, one
product-state index per object per kernel group, and per-spec bookkeeping.
This module serializes exactly that -- so a monitor can survive a process
restart without replaying the 10⁶ events that produced its state.

Wire format (version 2)::

    b"RSNP"  ·  >H format version  ·  >Q body length  ·  >I body crc32  ·  pickled body

The body holds the object interner, per-spec ``(generation, fingerprint)``
pairs, the shared-alphabet version, per-group state payloads, the session's
presence -- which interned objects some applied batch carried: every code
below ``universe`` except the ``absent`` list, which is empty unless the
interner holds unfed ids (bodies written before ``absent`` existed omit it,
and their every code below ``universe`` was fed) -- and, when the session
records histories for diagnostics, the encoded traces, the symbol table
needed to re-encode them elsewhere, and the per-spec reset marks that keep
``explain`` aligned with the verdicts.  Group payloads are written as the
kernel holds them (:meth:`repro.engine.vector.VectorKernel.snapshot_groups`):
the group's product states listed once as per-spec component tuples, and
the per-object state column as raw indices into that list, in the narrowest
of ``B``/``H``/``q`` (:func:`repro.engine.vector.pack_index_array`).  So a
group costs one byte per object at realistic spec sets -- ~100 KB at 10⁵
objects, ~1 MB at 10⁶ -- written with one copy, never re-encoded; bytes
are cheaper to write than to compress.  Older builds listed only the
occupied states and zlib-compressed the column; restore reads both forms.

The object interner is ``("dense", universe)`` in identity mode and
``("blocks", universe, blocks)`` in dict mode: the identity prefix as its
size alone, then the dict ids in code order as pickled lists of
:data:`repro.engine.batch.SNAPSHOT_BLOCK` ids (the last may be shorter).
The interner only grows, so it pickles each completed block once and hands
the same bytes to every later snapshot -- a checkpoint of a session pays
for the ids it added, not for all of them.  Bodies holding the older
``("objects", every id in code order)`` form still restore.

Restore validates, never trusts:

* the magic, version, body length and body CRC gate malformed blobs
  (:class:`SnapshotError`, not a pickle traceback five frames deep): any
  truncation or bit flip anywhere in the body fails the checksum before a
  single byte is unpickled, and a blob over-claiming its length reads as
  truncated instead of allocating the claim;
* packed columns (trace columns, and the state columns of older builds)
  decompress under a hard byte bound, so a corrupted column cannot
  zip-bomb restore into a ``MemoryError``; a raw column is refused past
  the same bound;
* **everything** after the header checks surfaces as
  :class:`SnapshotError` -- never a raw ``struct.error`` / ``zlib.error`` /
  ``KeyError`` from five frames inside the rebuild (the one deliberate
  exception: a snapshot naming a spec the engine does not know raises
  ``KeyError``, an engine-configuration error rather than blob corruption);
* the body -- and each object-id block inside it -- is decoded by a
  **restricted unpickler**: only builtin container/scalar types and
  classes from the ``repro`` package resolve, so a crafted blob cannot
  smuggle a ``__reduce__`` gadget through the object-id or symbol slots
  (object ids of foreign classes are therefore not restorable -- use
  builtins or ``repro`` types as stream ids); a block must decode to a
  list, and restore seeds the interner's block cache from the wire blocks;
* the recorded symbol table must match the recorded alphabet version, and
  every trace code must index into it;
* every spec name must be registered in the restoring engine;
* each spec's **table fingerprint**
  (:meth:`repro.engine.compiler.CompiledSpec.fingerprint`) is compared to
  the engine's current compilation.  A match proves the snapshot's integer
  states still mean the same thing -- compilation is deterministic, so this
  holds across processes and engine instances.  A mismatch (the spec was
  re-registered with a different automaton since the snapshot) resets that
  spec to its initial state; the reset names are reported on
  ``StreamChecker.reset_on_restore``;
* the group payloads are checked before any state is carried in: every
  stream spec is named by exactly one payload, every listed state is as
  wide as its payload's names, every component of a spec that is not reset
  is a state of that spec's compiled table, every column entry indexes the
  listed states, and the columns are equally long and no longer than the
  restored interner.

**The generation-vs-fingerprint contract.**  Live sessions and restore
answer to *different* authorities, deliberately.  A live session resets a
spec's cursors whenever its registration **generation** bumps -- even for a
byte-identical re-registration -- because re-registration is an operator
action whose stated semantics are "start this constraint over".  Restore
instead trusts the **fingerprint** alone: a snapshot is a *state transfer*,
and the only question that matters is whether the snapshot's integer states
are still interpretable -- which the fingerprint decides exactly.  So
restoring a snapshot taken before a *same-text* re-registration keeps the
cursor state (fingerprints match; the generation divergence is erased by
adopting the engine's current generations) and ``reset_on_restore`` stays
``()``; a *changed-text* re-registration resets, exactly as live.  The
restored stream never resets retroactively for generation bumps that
happened between dump and restore.

States are carried, not copied, along the path a live kernel rebuild
takes (:meth:`repro.engine.vector.VectorKernel.carry_columns`): the
restoring kernel may group specs differently (other alphabet width, other
product cap), so each distinct occupied state is re-materialized from its
per-spec components once (a listed state no object sits on costs nothing),
and numpy fans it out to the per-object columns.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.engine.batch import COLUMN_WIRE_LIMIT as _COLUMN_LIMIT
from repro.engine.batch import ObjectInterner, _pack_column, _unpack_column

MAGIC = b"RSNP"
FORMAT_VERSION = 2
_HEADER = struct.Struct(">HQI")

#: Every key a version-2 body must carry; missing keys are corruption.
_BODY_KEYS = frozenset(
    {"names", "specs", "alphabet_version", "objects", "events_seen", "universe", "seen", "groups", "traces"}
)


class SnapshotError(ValueError):
    """Raised when a blob is not a valid stream snapshot for this engine."""


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickle snapshot bodies without the arbitrary-code-execution hatch.

    Snapshot bodies are containers of ints, strings and bytes plus the
    caller's object ids and role-set symbols; nothing in them legitimately
    needs classes from outside ``builtins`` or the ``repro`` package, so
    anything else (the classic ``os.system`` reduce gadget included) is
    refused before it constructs.
    """

    _BUILTINS = frozenset(
        {
            "tuple",
            "list",
            "dict",
            "set",
            "frozenset",
            "bytes",
            "bytearray",
            "str",
            "int",
            "float",
            "bool",
            "complex",
        }
    )

    def find_class(self, module, name):
        if module == "builtins" and name in self._BUILTINS:
            return super().find_class(module, name)
        if module == "repro" or module.startswith("repro."):
            return super().find_class(module, name)
        raise SnapshotError(
            f"snapshot body references {module}.{name}; only builtins and repro types "
            f"may appear in a snapshot (use such types as stream object ids)"
        )


def restricted_loads(data: bytes):
    """Unpickle ``data`` through :class:`_RestrictedUnpickler`."""
    return _RestrictedUnpickler(io.BytesIO(data)).load()


def dump_stream(stream) -> bytes:
    """Serialize a :class:`repro.engine.engine.StreamChecker` to bytes.

    The stream's pending state is settled first (generation bumps applied,
    columns grown), so the snapshot always reflects what the session would
    answer *right now*.
    """
    engine = stream._engine
    kernel = stream._resolve_kernel() if stream._names else None
    # The kernel packs its own columns, straight off its ndarray buffers.
    groups: List[Dict] = [] if kernel is None else kernel.snapshot_groups(stream._columns)
    specs = {
        name: {
            "generation": engine.generation(name),
            "fingerprint": engine.compiled(name).fingerprint(),
        }
        for name in stream._names
    }
    traces = None
    if stream._traces is not None:
        recorded = stream._traces
        lengths = [0] * (max(recorded, default=-1) + 1)
        flat: List[int] = []
        for code in sorted(recorded):
            trace = recorded[code]
            lengths[code] = len(trace)
            flat.extend(trace)
        traces = {
            "symbols": list(engine.alphabet),
            "lengths": _pack_column(lengths),
            "codes": _pack_column(flat),
            "marks": {
                name: _pack_column(_mark_column(marks))
                for name, marks in stream._trace_marks.items()
            },
            "limit": stream._trace_limit,
        }
    # Presence ships as the never-fed codes below the last fed one --
    # usually few or none -- rather than a flag per object.
    universe = stream._present.rfind(1) + 1
    body = {
        "names": stream._names,
        "specs": specs,
        "alphabet_version": engine.alphabet.version,
        "objects": stream._interner.to_snapshot(),
        "events_seen": stream.events_seen,
        "universe": universe,
        "absent": _unfed_codes(stream._present, universe),
        "seen": {
            name: (None if seen is None else list(seen)) for name, seen in stream._seen.items()
        },
        "groups": groups,
        "traces": traces,
    }
    payload = pickle.dumps(body, protocol=4)
    blob = MAGIC + _HEADER.pack(FORMAT_VERSION, len(payload), zlib.crc32(payload)) + payload
    obs = engine._obs
    if obs is not None:
        obs.snapshot_dump_bytes.inc(len(blob))
    return blob


def _unfed_codes(present: bytearray, universe: int) -> List[int]:
    """The codes below ``universe`` whose presence flag is 0.

    Usually every code below the universe was fed, and one ``find`` (a
    ``memchr``) settles that; only a session holding unfed codes pays the
    numpy scan that lists them.
    """
    if present.find(0, 0, universe) < 0:
        return []
    flags = np.frombuffer(present, dtype=np.uint8, count=universe)
    return np.flatnonzero(flags == 0).tolist()


def _mark_column(marks: Dict[int, int]) -> List[int]:
    """A reset-mark dict as the per-code column the wire carries (0 = unset)."""
    column = [0] * (max(marks, default=-1) + 1)
    for code, mark in marks.items():
        column[code] = mark
    return column


def _mark_dict(column: List[int]) -> Dict[int, int]:
    """Inverse of :func:`_mark_column`."""
    return {code: mark for code, mark in enumerate(column) if mark}


def _parse(blob: bytes) -> Dict:
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise SnapshotError(f"a stream snapshot is bytes, not {type(blob).__name__}")
    blob = bytes(blob)
    if len(blob) < 4 + _HEADER.size or blob[:4] != MAGIC:
        raise SnapshotError("not a stream snapshot (bad magic)")
    version, length, crc = _HEADER.unpack_from(blob, 4)
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format {version} (this build reads {FORMAT_VERSION})"
        )
    # An over-claimed length reads as truncation; the claim is never
    # allocated, so an absurd length cannot MemoryError the parser.
    if len(blob) < 4 + _HEADER.size + length:
        raise SnapshotError("truncated stream snapshot")
    body = blob[4 + _HEADER.size : 4 + _HEADER.size + length]
    if zlib.crc32(body) != crc:
        raise SnapshotError("corrupt stream snapshot (body checksum mismatch)")
    try:
        decoded = restricted_loads(body)
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"corrupt stream snapshot body: {exc}") from exc
    if not isinstance(decoded, dict) or not _BODY_KEYS.issubset(decoded):
        raise SnapshotError("corrupt stream snapshot (body structure)")
    return decoded


def load_stream(engine, blob: bytes):
    """Rebuild a :class:`StreamChecker` session on ``engine`` from a snapshot.

    Raises :class:`SnapshotError` for malformed blobs and ``KeyError`` when
    the snapshot references a spec the engine does not know.  Specs whose
    current compilation no longer matches the snapshot's fingerprint are
    restarted from their initial state and listed on the returned stream's
    ``reset_on_restore``.  The fingerprint is the *only* reset authority
    here: re-registrations since the snapshot that recompile to the same
    table (same-text) keep the snapshot's state, and the restored session
    adopts the engine's current generations so it does not reset again on
    its next touch (see the module docstring for the contract).
    """
    body = _parse(blob)
    try:
        names = tuple(body["names"])
    except Exception as exc:
        raise SnapshotError(f"corrupt stream snapshot: {exc}") from exc
    for name in names:
        if engine.generation(name) == 0:
            raise KeyError(
                f"the snapshot checks spec {name!r}, which is not registered in this engine"
            )
    obs = engine._obs
    if obs is not None:
        obs.snapshot_restore_bytes.inc(len(blob))
    try:
        return _rebuild(engine, body, names)
    except SnapshotError:
        raise
    except Exception as exc:
        # The body passed the CRC and the structure checks, yet the rebuild
        # tripped -- a column that does not unpack, a missing key, the wrong
        # types inside a well-formed container.  All corruption, all one
        # exception type for callers.
        raise SnapshotError(f"corrupt stream snapshot: {exc}") from exc


def _rebuild(engine, body: Dict, names: Tuple[str, ...]):
    """The post-validation restore; every failure in here is corruption.
    The kernel checks and carries in its own group payloads."""
    from repro.engine.engine import StreamChecker

    resets = tuple(
        name
        for name in names
        if engine.compiled(name).fingerprint() != body["specs"][name]["fingerprint"]
    )
    stream = StreamChecker(engine, names, record=body["traces"] is not None)
    stream._interner = ObjectInterner.from_snapshot(body["objects"])
    n_objects = len(stream._interner)
    if names:
        kernel = engine._kernel_for(names)
        # Each occupied product state is one unit of restore work: the
        # carry counts the states it puts objects on, not those listed.
        obs = engine._obs
        counter = None if obs is None else obs.snapshot_state_translations
        stream._columns = kernel.restore_columns(body["groups"], resets, n_objects, counter)
        kernel.grow_columns(stream._columns, n_objects)
        stream._kernel = kernel
    seen = body["seen"]
    stream._seen = {
        name: {}
        if name in resets
        else (None if seen[name] is None else dict.fromkeys(seen[name]))
        for name in names
    }
    universe = body["universe"]
    absent = body.get("absent", ())
    if not 0 <= universe <= n_objects or not all(0 <= code < universe for code in absent):
        raise SnapshotError("corrupt stream snapshot: presence outside the object-id space")
    present = bytearray(b"\x01") * universe
    for code in absent:
        present[code] = 0
    stream._present = present
    stream.events_seen = body["events_seen"]
    if body["traces"] is not None:
        traces = body["traces"]
        if len(traces["symbols"]) != body["alphabet_version"]:
            raise SnapshotError(
                "corrupt stream snapshot: the recorded symbol table does not match "
                "the recorded alphabet version"
            )
        alphabet = engine.alphabet
        recode = [alphabet.intern(symbol) for symbol in traces["symbols"]]
        lengths = _unpack_column(traces["lengths"], limit=_COLUMN_LIMIT)
        flat = _unpack_column(traces["codes"], limit=_COLUMN_LIMIT)
        if len(lengths) > n_objects:
            raise SnapshotError("corrupt stream snapshot: more traces than objects")
        rebuilt = stream._traces
        position = 0
        try:
            for code, length in enumerate(lengths):
                if length:
                    rebuilt[code] = list(
                        map(recode.__getitem__, flat[position : position + length])
                    )
                    position += length
        except IndexError:
            raise SnapshotError(
                "corrupt stream snapshot: a trace code points outside the recorded "
                "symbol table"
            ) from None
        stream._trace_marks = {
            name: _mark_dict(_unpack_column(packed, limit=_COLUMN_LIMIT))
            for name, packed in traces["marks"].items()
        }
        for name in resets:
            # The reset spec's cursors restarted at restore time: diagnostics
            # must not re-judge events the verdict machinery has forgotten.
            stream._trace_marks[name] = {code: len(trace) for code, trace in rebuilt.items()}
        stream._trace_limit = traces.get("limit")
    stream.reset_on_restore = resets
    return stream


__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SnapshotError",
    "dump_stream",
    "load_stream",
    "restricted_loads",
]
