"""The columnar event pipeline: encode-once batches and history sets.

The PR-2 engine re-paid a representation tax on every sweep: each spec
re-hashed every event's frozenset role set through its own ``codes`` dict,
and object ids lived in per-spec dicts.  This module makes a *columnar*
encoding the engine's native interchange format instead:

* :class:`ObjectInterner` -- object ids become dense integers (with an
  identity fast path for workload streams whose ids are already dense);
* :class:`EncodedBatch` -- an interleaved event stream encoded **once**
  against the engine's shared :class:`repro.formal.alphabet.RoleSetAlphabet`
  into ``array('q')`` id/code columns;
* :class:`ColumnarHistorySet` -- whole-history batches as one flat code
  column plus offsets, the unit of batch checking.

The kernel that advances these columns lives in :mod:`repro.engine.vector`.
Symbols appear only at the encode boundary and when verdicts are mapped
back to caller object ids.
"""

from __future__ import annotations

import pickle
import zlib
from array import array
from itertools import accumulate, chain
from numbers import Number
from operator import index as _index
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.formal.alphabet import RoleSetAlphabet

Symbol = Hashable
ObjectId = Hashable
Event = Tuple[ObjectId, Symbol]

#: zlib level for the list columns :func:`_pack_column` packs (a recording
#: snapshot's traces): level 1 keeps compression at memory-copy speed while
#: already collapsing low-entropy columns by ~4-8x.
_PAYLOAD_ZLIB_LEVEL = 1

#: Decompression bound for packed columns arriving from *untrusted* wire
#: blobs (snapshots, journal records): generous for any real session (10⁷
#: objects at 8 bytes), fatal for a zlib bomb inside a corrupted payload.
COLUMN_WIRE_LIMIT = 1 << 27

#: Bytes of the widest per-object slot a session writes to the wire: an
#: ``array('q')`` entry (a state index, a trace length, a reset mark).
_SLOT_BYTES = 8

#: Int ids at or above this bound are dict-interned instead of being their own
#: codes.  Identity mode sizes every per-object column by the largest id seen,
#: so the bound caps what one stray id can make a session allocate: a universe
#: of this size packs into exactly ``COLUMN_WIRE_LIMIT`` bytes at
#: ``_SLOT_BYTES`` a slot, the most a snapshot or journal column may carry
#: (2**24 ids; in memory at most one byte of presence mask plus one state slot
#: per kernel group for each).
IDENTITY_LIMIT = COLUMN_WIRE_LIMIT // _SLOT_BYTES

#: Dict-mode ids per snapshot block (see :meth:`ObjectInterner.to_snapshot`).
#: A constant, not an option: large enough that a block's pickle framing is
#: noise beside its ids, small enough that re-pickling the open tail block
#: costs a checkpoint about a tenth of a millisecond whatever the population,
#: and fixed so that every session cuts its blocks at the same boundaries.
SNAPSHOT_BLOCK = 1024


def _int_value(object_id: ObjectId) -> int:
    """The int an object id equals as a dict key, or ``-1`` when there is none.

    Ints, bools and numpy integers convert exactly (``operator.index``); any
    other number equal to an int names that int (``2.0`` and ``2`` are one
    dict key, so they are one object).  Negative ints come back negative, so
    ``0 <= value`` alone says whether an id can be an identity code.
    """
    if type(object_id) is int:
        return object_id
    if isinstance(object_id, str):
        return -1
    try:
        return _index(object_id)
    except TypeError:
        pass
    if isinstance(object_id, Number):
        try:
            value = int(object_id)
        except (TypeError, ValueError, OverflowError):
            return -1
        if value == object_id:
            return value
    return -1


def _checked_universe(size) -> int:
    """An identity-universe size read off the wire, validated."""
    if type(size) is not int or not 0 <= size <= IDENTITY_LIMIT:
        raise ValueError(f"an identity universe of {size!r} ids is outside 0..{IDENTITY_LIMIT}")
    return size


def _q_array(values: Sequence[int]) -> array:
    """Non-negative ints as ``array('q')``, in one C-speed pass.

    Typecode ``"Q"`` converts each item with a bare ``__index__`` call, about
    twice as fast as ``"q"``'s per-item argument parsing, and the two layouts
    agree on every non-negative value, so the result is a bytewise copy.
    Negative values (only a crafted wire payload carries them) take the slow
    typecode instead of raising here.
    """
    try:
        unsigned = array("Q", values)
    except OverflowError:
        return array("q", values)
    column = array("q")
    column.frombytes(memoryview(unsigned).cast("B"))
    return column


class _IdCodes(dict):
    """The dict-mode id → code table: looking up an id it lacks interns it.

    ``__missing__`` hands the id to the owning interner's rule
    (:meth:`ObjectInterner._dict_code`), which stores and returns the code,
    so ``map(table.__getitem__, column)`` encodes a column in one C pass
    that runs Python only for ids never seen before.  ``get`` and ``in``
    never intern.
    """

    __slots__ = ("_miss",)

    def __init__(self, miss) -> None:
        self._miss = miss

    def __missing__(self, object_id: ObjectId) -> int:
        return self._miss(object_id)


class ObjectInterner:
    """Dense integer codes for stream objects, append-only like the alphabet.

    **Identity mode.**  Every non-negative int id below
    :data:`IDENTITY_LIMIT` is its own code, gaps allowed: the universe -- the
    code space -- is the largest id seen plus one, so ids ``0`` and ``9``
    make a universe of ten whose eight unfed slots each cost a column entry
    but are never reported.  Which ids a stream was actually fed is the
    stream's business (its presence mask, see
    :class:`repro.engine.engine.StreamChecker`), not the interner's.  A
    column of such ids is checked and copied in one C-speed
    ``array('Q')`` pass (non-int, negative and oversized ids raise inside
    it) plus a max, and the copy becomes the batch's ``ids`` column:
    encoding a batch costs what it adds, never a re-hash of known ids.
    "Int" means whatever ``operator.index`` accepts, so ``True`` and
    ``numpy.int64(3)`` name the ints ``1`` and ``3``, as they would as dict
    keys; int ids come back from :meth:`object` as plain ints.

    **The memory bound.**  Identity mode sizes per-object state by the
    largest id, so one stray id decides the allocation.
    :data:`IDENTITY_LIMIT` is a constant, not an option: it is the universe
    whose widest wire column (8 bytes a slot) fills
    :data:`COLUMN_WIRE_LIMIT`, the most a snapshot or journal column may
    carry, so a session that could not be checkpointed is never built from
    identity codes.

    **Dict mode.**  The first id that is not an in-bound int (a string, a
    negative int, ``10**12``) ends identity mode for good: the universe
    freezes, and that id and every later id outside the universe are
    dict-interned, their codes counting on from the universe in order of
    first sight.  Leaving identity mode allocates nothing per slot, and no
    code handed out earlier ever changes: ids inside the frozen universe
    keep their identity codes, and any number equal to one of them (``2.0``
    for ``2``) names the same object, as a dict key would.  The code table
    interns on a miss, so a dict-mode column is encoded by one C-level
    ``map`` through it: Python runs once per id the interner has never seen,
    and a batch of known ids costs one dict lookup each, whatever the
    population.

    :meth:`intern` and :meth:`intern_column` agree id for id: a column
    interned whole or one id at a time hands out the same codes and leaves
    the same state, so codes never depend on how a stream was cut into
    batches.  Interning a column is atomic: a column that raises part way
    (an unhashable id) leaves the interner exactly as it was -- same codes,
    same universe, same mode -- and the exception propagates unchanged.

    **Presence.**  Holding a code is not being fed: gap ids, ids of a
    ``reject_batch`` refusal and ids of a pre-encoded batch that was never
    fed all hold codes.  A stream counts an object as present once an
    admitted event carried it, and lists only present objects.

    Contract changes from the earlier initial-segment dense mode: int ids
    are their own codes across gaps (``intern(10)`` after ``0..2`` is 10,
    not 3), and a stream's ``objects()`` lists int ids in ascending order.

    **Snapshots** pay for what the id space added since the last one: dict
    ids serialize in blocks of :data:`SNAPSHOT_BLOCK`, and each completed
    block is pickled once and kept (see :meth:`to_snapshot`).
    """

    __slots__ = ("_universe", "_codes", "_objects", "_blocks")

    def __init__(self) -> None:
        #: Identity codes: every code below this bound is the int id itself.
        self._universe = 0
        #: Dict-interned ids, plus the identity ids met in dict mode (cached),
        #: to their codes; a lookup miss interns the id (:meth:`_dict_code`).
        self._codes: Dict[ObjectId, int] = _IdCodes(self._dict_code)
        #: Dict-interned ids in code order; ``_objects[i]`` has code
        #: ``_universe + i``.  Empty exactly while in identity mode.
        self._objects: List[ObjectId] = []
        #: The pickles of the completed snapshot blocks of ``_objects``, in
        #: order: ``_objects`` only grows, so a completed block never changes.
        self._blocks: List[bytes] = []

    def __len__(self) -> int:
        return self._universe + len(self._objects)

    def intern(self, object_id: ObjectId) -> int:
        """The code of one object, allocating a fresh one on first sight."""
        if not self._objects:
            value = _int_value(object_id)
            if 0 <= value < IDENTITY_LIMIT:
                if value >= self._universe:
                    self._universe = value + 1
                return value
        return self._codes[object_id]

    def _dict_code(self, object_id: ObjectId) -> int:
        """The code of an id the code table does not hold yet (dict mode);
        the table's ``__missing__``."""
        universe = self._universe
        value = _int_value(object_id) if universe else -1
        if 0 <= value < universe:
            code = value  # inside the frozen universe: its identity code
        else:
            code = universe + len(self._objects)
            self._objects.append(object_id)
        self._codes[object_id] = code
        return code

    def intern_column(self, column: Sequence[ObjectId]) -> List[int]:
        """Encode a whole id column; the codes agree with :meth:`intern`."""
        codes = self._intern_ids(column)
        return codes.tolist() if isinstance(codes, array) else codes

    def _intern_ids(self, column: Sequence[ObjectId]):
        """The column's codes: its own ``array('q')`` copy when every id is an
        identity code, otherwise a list.

        Atomic: on any exception the interner is rolled back to its state on
        entry (:meth:`_rollback`) and the exception propagates.
        """
        if not column:
            return []
        universe, count = self._universe, len(self._objects)
        try:
            if not count:
                ids = self._identity_ids(column)
                if ids is not None:
                    return ids
                # Some id leaves identity mode: the ids before it are still
                # their own codes, exactly as interning them one at a time
                # would say.
                intern = self.intern
                codes = []
                for position, object_id in enumerate(column):
                    codes.append(intern(object_id))
                    if self._objects:
                        codes.extend(map(self._codes.__getitem__, column[position + 1 :]))
                        break
                return codes
            return list(map(self._codes.__getitem__, column))
        except BaseException:
            self._rollback(universe, count)
            raise

    def _rollback(self, universe: int, count: int) -> None:
        """Forget every code handed out since the interner held ``universe``
        identity codes and ``count`` dict ids."""
        objects = self._objects
        codes = self._codes
        if count:
            for object_id in objects[count:]:
                codes.pop(object_id, None)
        else:
            codes.clear()  # back in identity mode, which keeps no table
        del objects[count:]
        self._universe = universe

    def _identity_ids(self, column: Sequence[ObjectId]) -> Optional[array]:
        """The column as ``array('q')`` when every id is an in-bound int id."""
        try:
            unsigned = array("Q", column)  # TypeError: not an int; OverflowError: < 0
        except (TypeError, OverflowError):
            return None
        high = int(np.frombuffer(unsigned, np.uint64).max())
        if high >= IDENTITY_LIMIT:
            return None
        if high >= self._universe:
            self._universe = high + 1
        ids = array("q")
        ids.frombytes(memoryview(unsigned).cast("B"))
        return ids

    def code_of(self, object_id: ObjectId, default: int = -1) -> int:
        """The existing code of ``object_id``, or ``default`` -- never interns.

        Identity codes answer for every id inside the universe, fed or not:
        an unfed gap id reads as an object still at its initial state.
        """
        if self._objects:
            code = self._codes.get(object_id)
            if code is not None:
                return code
        value = _int_value(object_id)
        return value if 0 <= value < self._universe else default

    def object(self, code: int) -> ObjectId:
        """The object carrying ``code`` (inverse of :meth:`intern`)."""
        universe = self._universe
        return code if code < universe else self._objects[code - universe]

    def objects(self, codes: List[int]) -> List[ObjectId]:
        """:meth:`object` of each of ``codes``; identity codes are their own
        ids, so an identity-mode list comes back as it is."""
        if not self._objects:
            return codes
        universe, objects = self._universe, self._objects
        return [code if code < universe else objects[code - universe] for code in codes]

    def to_snapshot(self) -> Tuple:
        """The id space as a picklable tuple.

        Identity mode serializes as ``("dense", universe)``.  Dict mode
        serializes as ``("blocks", universe, blocks)``: ``blocks`` holds the
        dict ids in code order, :data:`SNAPSHOT_BLOCK` to a block, each block
        a pickled list (the last one may be shorter).  A completed block is
        pickled on the first snapshot that covers it and reused by every
        later one, so a snapshot pickles only the open tail block.
        :meth:`from_snapshot` inverts both forms exactly, so codes never
        move across a snapshot round trip.
        """
        objects = self._objects
        if not objects:
            return ("dense", self._universe)
        blocks = self._blocks
        done = len(blocks) * SNAPSHOT_BLOCK
        while done + SNAPSHOT_BLOCK <= len(objects):
            blocks.append(pickle.dumps(objects[done : done + SNAPSHOT_BLOCK], protocol=4))
            done += SNAPSHOT_BLOCK
        wire = tuple(blocks)
        if done < len(objects):
            wire += (pickle.dumps(objects[done:], protocol=4),)
        return ("blocks", self._universe, wire)

    def tail(self, start: int) -> Tuple:
        """The id-space delta since the first ``start`` codes, as a payload.

        Identity mode ships only the current universe (int ids are their own
        codes); dict mode ships the objects holding codes ``start`` onward,
        in code order.  :meth:`extend_tail` applies the payload to an
        interner whose first ``start`` codes match -- the journal's replay
        contract.
        """
        if not self._objects:
            return ("dense", self._universe)
        universe = self._universe
        return (
            "objects",
            list(range(start, universe)) + self._objects[max(0, start - universe) :],
        )

    def extend_tail(self, payload: Tuple, start: int) -> None:
        """Apply a :meth:`tail` payload recorded at id-space size ``start``.

        The interner must hold exactly the first ``start`` codes the payload
        was cut at (interning is deterministic, so a state restored from an
        older checkpoint always does); misaligned payloads raise
        ``ValueError`` rather than silently shifting codes.
        """
        kind, data = payload
        if kind == "dense":
            if self._objects:
                raise ValueError("a dense id-space tail cannot extend a dict-mode interner")
            self._universe = max(self._universe, _checked_universe(data))
            return
        if kind != "objects":
            raise ValueError(f"unknown object-interner tail kind {kind!r}")
        if len(self) != start:
            raise ValueError(
                f"object-id tail recorded at size {start} cannot extend an interner "
                f"holding {len(self)} codes"
            )
        codes = self._codes
        objects = self._objects
        for code, object_id in enumerate(data, start):
            codes[object_id] = code
            objects.append(object_id)

    @classmethod
    def from_snapshot(cls, payload: Tuple) -> "ObjectInterner":
        """Rebuild the id space serialized by :meth:`to_snapshot`.

        Also reads ``("objects", every id in code order)``, the dict-mode
        form of older snapshots.  Blocks decode through the snapshot
        module's restricted unpickler, and the completed ones seed the block
        cache, so the restored interner's next snapshot re-pickles none of
        them.
        """
        kind = payload[0]
        interner = cls()
        if kind == "dense":
            _kind, universe = payload
            interner._universe = _checked_universe(universe)
            return interner
        if kind == "objects":
            _kind, objects = payload
            universe, objects = 0, list(objects)
        elif kind == "blocks":
            _kind, universe, blocks = payload
            universe = _checked_universe(universe)
            objects = _decode_blocks(blocks, interner._blocks)
        else:
            raise ValueError(f"unknown object-interner snapshot kind {kind!r}")
        interner._universe = universe
        interner._objects = objects
        # update(zip(...)) builds the inverse map in C -- on a 10^5-object
        # snapshot this is the single hottest line of a restore.
        interner._codes.update(zip(objects, range(universe, universe + len(objects))))
        if len(interner._codes) != len(interner._objects):
            raise ValueError("an object-id snapshot lists one id twice")
        return interner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectInterner({len(self)} objects)"


def _decode_blocks(blocks: Sequence[bytes], cache: List[bytes]) -> List[ObjectId]:
    """The dict ids of a ``"blocks"`` snapshot, in code order.

    Each block decodes through the restricted unpickler and must be a list.
    ``cache`` receives the pickles of the leading completed blocks, so they
    are reused as they came instead of being pickled again.
    """
    from repro.engine.snapshot import restricted_loads  # snapshot imports this module

    objects: List[ObjectId] = []
    for blob in blocks:
        ids = restricted_loads(blob)
        if type(ids) is not list:
            raise ValueError(f"an object-id block decodes to {type(ids).__name__}, not a list")
        if len(ids) == SNAPSHOT_BLOCK and len(objects) == len(cache) * SNAPSHOT_BLOCK:
            cache.append(bytes(blob))
        objects.extend(ids)
    return objects


def _pack_column(values: Sequence[int]) -> Tuple[str, int, bytes]:
    """``(typecode, zlib flag, data)`` with the narrowest dtype that fits."""
    high = max(values, default=0)
    typecode = "B" if high <= 0xFF else ("H" if high <= 0xFFFF else "q")
    raw = array(typecode, values).tobytes()
    packed = zlib.compress(raw, _PAYLOAD_ZLIB_LEVEL)
    if len(packed) < len(raw):
        return typecode, 1, packed
    return typecode, 0, raw


def _unpack_column(packed: Tuple[str, int, bytes], limit: Optional[int] = None) -> List[int]:
    """Inverse of :func:`_pack_column`; ``limit`` caps decompressed bytes.

    Untrusted wire parsers (snapshot restore, journal replay) pass a limit
    so a corrupted or hostile length cannot zip-bomb the process into a
    ``MemoryError``: decompression stops at the bound and raises
    ``ValueError`` instead of materializing the claimed size.
    """
    return _unpack_array(packed, limit).tolist()


def _unpack_array(packed: Tuple[str, int, bytes], limit: Optional[int] = None) -> array:
    """:func:`_unpack_column` stopping at the ``array``, for callers that gather
    straight off its buffer."""
    typecode, compressed, data = packed
    if compressed:
        if limit is None:
            data = zlib.decompress(data)
        else:
            decompressor = zlib.decompressobj()
            data = decompressor.decompress(data, limit + 1)
            if len(data) > limit or decompressor.unconsumed_tail:
                raise ValueError(f"packed column inflates past the {limit}-byte bound")
    elif limit is not None and len(data) > limit:
        raise ValueError(f"packed column carries more than the {limit}-byte bound")
    column = array(typecode)
    column.frombytes(data)
    return column


def _column_forms(column: Union[List[int], array]) -> Tuple[Optional[array], Optional[List[int]]]:
    """``(array form, list form)`` of a column, exactly one of them set."""
    if isinstance(column, array) and column.typecode == "q":
        return column, None
    return None, column


class EncodedBatch:
    """An interleaved event batch encoded once into dense integer columns.

    ``ids`` and ``codes`` expose the columns as ``array('q')``, and
    :attr:`id_list` / :attr:`code_list` as lists (recorded traces and
    rejection records read those).  Each column is built as whichever of
    the two its producer made -- identity interning hands over its checked
    ``array('q')`` copy of the ids, the kernel's admission mask cuts both
    columns as arrays -- and the other form is derived on first use, so
    array consumers (the kernel, the WAL) never round-trip through lists.
    A batch is immutable once built and remembers the
    :class:`ObjectInterner` that owns its id space, so streams can adopt a
    pre-encoded batch without re-hashing anything.
    """

    __slots__ = (
        "objects",
        "alphabet",
        "max_code",
        "_id_list",
        "_max_id",
        "_ids",
        "_code_list",
        "_codes",
        "_np_ids",
        "_np_codes",
        "_np_plan",
        "_np_carried",
        "_np_highs",
    )

    def __init__(
        self,
        ids: Union[List[int], array],
        codes: Union[List[int], array],
        objects: ObjectInterner,
        alphabet: Optional[RoleSetAlphabet] = None,
        max_code: Optional[int] = None,
    ) -> None:
        self._ids, self._id_list = _column_forms(ids)
        self._codes, self._code_list = _column_forms(codes)
        self.objects = objects
        #: The alphabet the codes were minted against (``None`` when built
        #: from bare columns); streams refuse batches from a foreign alphabet.
        self.alphabet = alphabet
        #: ``max_code`` may be passed as an upper bound instead of the exact
        #: maximum (the encoder passes its alphabet's size, the enforcement
        #: gate its parent batch's bound), which skips an O(n) scan.  Streams
        #: do not trust it: they check the codes themselves on adoption.
        self.max_code = max(codes, default=-1) if max_code is None else max_code
        self._max_id: Optional[int] = None
        #: ndarray views of the columns, the cached peel plan, (for batches
        #: with more events than their streams have objects) the distinct
        #: ids and the column maxima the ingest check read, filled by
        #: :mod:`repro.engine.vector` (a batch is immutable, so all are
        #: derived once and shared by every stream the batch is fed to).
        self._np_ids = None
        self._np_codes = None
        self._np_plan = None
        self._np_carried = None
        self._np_highs = None

    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        alphabet: RoleSetAlphabet,
        objects: Optional[ObjectInterner] = None,
    ) -> "EncodedBatch":
        """Encode ``(object id, symbol)`` pairs, one C-speed pass per column.

        Unseen symbols are interned into ``alphabet`` (append-only, so codes
        already handed out never move); unseen objects are interned into
        ``objects`` (a fresh interner when not given).  Symbols are encoded
        straight off the event tuples, with no intermediate symbol list.
        The alphabet's size is the batch's ``max_code`` bound, so no pass
        re-scans the codes.  A batch that raises in either column leaves
        both the interner and the alphabet as they were.
        """
        events = events if isinstance(events, (list, tuple)) else list(events)
        interner = objects if objects is not None else ObjectInterner()
        if not events:
            return cls([], [], interner, alphabet)
        universe, count = interner._universe, len(interner._objects)
        ids = interner._intern_ids(list(map(itemgetter(0), events)))
        try:
            codes = alphabet.encode_column(map(itemgetter(1), events))
        except BaseException:
            interner._rollback(universe, count)
            raise
        return cls(ids, codes, interner, alphabet, max_code=len(alphabet) - 1)

    def __len__(self) -> int:
        return len(self._ids if self._id_list is None else self._id_list)

    @property
    def id_list(self) -> List[int]:
        """The object-id column as a list."""
        if self._id_list is None:
            self._id_list = self._ids.tolist()
        return self._id_list

    @property
    def code_list(self) -> List[int]:
        """The symbol-code column as a list."""
        if self._code_list is None:
            self._code_list = self._codes.tolist()
        return self._code_list

    @property
    def max_id(self) -> int:
        """The largest dense object id in the batch (``-1`` when empty)."""
        if self._max_id is None:
            self._max_id = max(self.id_list, default=-1)
        return self._max_id

    @property
    def ids(self) -> array:
        """The object-id column as ``array('q')``."""
        if self._ids is None:
            self._ids = _q_array(self._id_list)
        return self._ids

    @property
    def codes(self) -> array:
        """The symbol-code column as ``array('q')``."""
        if self._codes is None:
            self._codes = _q_array(self._code_list)
        return self._codes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedBatch({len(self)} events)"


class ColumnarHistorySet:
    """Whole object histories as one flat code column plus offsets.

    The batch-checking analogue of :class:`EncodedBatch`: history ``i`` is
    ``code_list[offsets[i]:offsets[i + 1]]``.  The offsets (an
    ``array('q')``) start at 0, never decrease and end at ``len(code_list)``,
    so every code belongs to exactly one history; :meth:`from_histories`
    always builds them so, and the engine refuses a bare-column set that
    breaks it, naming the first bad history, before any kernel work.
    """

    __slots__ = ("code_list", "offsets", "alphabet", "max_code", "_codes", "_np_codes")

    def __init__(
        self,
        code_list: List[int],
        offsets: array,
        alphabet: Optional[RoleSetAlphabet] = None,
        max_code: Optional[int] = None,
    ) -> None:
        self.code_list = code_list
        self.offsets = offsets
        #: The alphabet the codes were minted against (``None`` when built
        #: from bare columns); the engine refuses sets from a foreign alphabet.
        self.alphabet = alphabet
        #: An upper bound on the codes, as for :class:`EncodedBatch`.
        self.max_code = max(code_list, default=-1) if max_code is None else max_code
        self._codes: Optional[array] = None
        #: ndarray view of the code column, filled by :mod:`repro.engine.vector`.
        self._np_codes = None

    @classmethod
    def from_histories(
        cls, histories: Sequence[Sequence[Symbol]], alphabet: RoleSetAlphabet
    ) -> "ColumnarHistorySet":
        """Encode every history once against the shared alphabet, in one pass
        over the chained histories (no intermediate symbol list).

        The alphabet's size is the set's ``max_code`` bound, so no pass
        re-scans the codes.
        """
        code_list = alphabet.encode_column(chain.from_iterable(histories))
        offsets = _q_array(list(accumulate(map(len, histories), initial=0)))
        return cls(code_list, offsets, alphabet, max_code=len(alphabet) - 1)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def codes(self) -> array:
        """The flat code column as ``array('q')``."""
        if self._codes is None:
            self._codes = _q_array(self.code_list)
        return self._codes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarHistorySet({len(self)} histories, {len(self.code_list)} events)"


__all__ = [
    "COLUMN_WIRE_LIMIT",
    "IDENTITY_LIMIT",
    "ObjectInterner",
    "EncodedBatch",
    "ColumnarHistorySet",
]
