"""The columnar event pipeline: encode-once batches and the fused multi-spec kernel.

The PR-2 engine re-paid a representation tax on every sweep: each spec
re-hashed every event's frozenset role set through its own ``codes`` dict,
object ids lived in per-spec dicts, and process-pool shards shipped pickled
``CompiledSpec`` objects plus raw frozenset histories.  This module makes a
*columnar* encoding the engine's native interchange format instead:

* :class:`ObjectInterner` -- object ids become dense integers (with an
  identity fast path for workload streams whose ids are already dense);
* :class:`EncodedBatch` -- an interleaved event stream encoded **once**
  against the engine's shared :class:`repro.formal.alphabet.RoleSetAlphabet`
  into ``array('q')`` id/code columns;
* :class:`ColumnarHistorySet` -- whole-history batches as one flat code
  column plus offsets, the unit of shard dispatch;
* :class:`FusedKernel` -- the multi-spec kernel.  Registered specs are
  fused into the reachable *product* automaton (greedily packed into groups
  under a state cap), whose states are Python lists holding direct
  references to their successor rows.  :meth:`FusedKernel.advance_all` is
  therefore a single pass per group over one encoded batch whose inner loop
  is ``column[o] = column[o][c]`` -- no hashing, no index arithmetic, no
  branches.  Product states that are doomed for every spec in a group
  collapse onto one absorbing sink row, and a population that has fully
  reached the sink lets the whole group skip subsequent batches
  (the doomed-population early exit).
* shard dispatch -- :func:`check_columnar_shard` plus the payload helpers
  ship narrow-dtype, optionally zlib-compressed column bytes and compact
  frozenset-free spec blobs (:meth:`CompiledSpec.to_blob`), resolved through
  a worker-local kernel cache keyed by ``(name, generation)`` and the shared
  alphabet version, instead of pickling tables and frozensets per shard.

Everything here runs on plain ints and lists; symbols appear only at the
encode boundary and when verdicts are mapped back to caller object ids.
"""

from __future__ import annotations

import zlib
from array import array
from collections import OrderedDict
from itertools import chain
from numbers import Number
from operator import index as _index
from operator import itemgetter
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.engine.compiler import CompiledSpec
from repro.formal.alphabet import RoleSetAlphabet
from repro.testing.faults import fire as _fire

try:  # numpy only speeds up the one max an identity-mode id column needs
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

Symbol = Hashable
ObjectId = Hashable
Event = Tuple[ObjectId, Symbol]

#: Product states per fused group before the kernel starts a new group.
#: Doomed-state collapse keeps realistic spec sets far below this; the cap
#: only guards adversarial spec combinations from materializing a huge
#: product (they fall back to smaller groups, down to one spec per group).
PRODUCT_STATE_CAP = 20_000

#: zlib level for shard payloads: level 1 keeps compression at memory-copy
#: speed while already collapsing low-entropy code columns by ~4-8x.
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
    for ``2``) names the same object, as a dict key would.

    :meth:`intern` and :meth:`intern_column` agree id for id: a column
    interned whole or one id at a time hands out the same codes and leaves
    the same state, so codes never depend on how a stream was cut into
    batches.

    **Presence.**  Holding a code is not being fed: gap ids, ids of a
    ``reject_batch`` refusal and ids of a pre-encoded batch that was never
    fed all hold codes.  A stream counts an object as present once an
    admitted event carried it, and lists only present objects.

    Contract changes from the earlier initial-segment dense mode: int ids
    are their own codes across gaps (``intern(10)`` after ``0..2`` is 10,
    not 3), and a stream's ``objects()`` lists int ids in ascending order.
    """

    __slots__ = ("_universe", "_codes", "_objects")

    def __init__(self) -> None:
        #: Identity codes: every code below this bound is the int id itself.
        self._universe = 0
        #: Dict-interned ids, plus the identity ids met in dict mode (cached),
        #: to their codes.
        self._codes: Dict[ObjectId, int] = {}
        #: Dict-interned ids in code order; ``_objects[i]`` has code
        #: ``_universe + i``.  Empty exactly while in identity mode.
        self._objects: List[ObjectId] = []

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
        code = self._codes.get(object_id)
        return self._dict_code(object_id) if code is None else code

    def _dict_code(self, object_id: ObjectId) -> int:
        """The code of an id the code dict does not hold yet (dict mode)."""
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
        identity code, otherwise a list."""
        if not column:
            return []
        if not self._objects:
            ids = self._identity_ids(column)
            if ids is not None:
                return ids
            # Some id leaves identity mode: the ids before it are still their
            # own codes, exactly as interning them one at a time would say.
            intern = self.intern
            codes = []
            for position, object_id in enumerate(column):
                codes.append(intern(object_id))
                if self._objects:
                    codes.extend(self._dict_ids(column[position + 1 :]))
                    break
            return codes
        return self._dict_ids(column)

    def _identity_ids(self, column: Sequence[ObjectId]) -> Optional[array]:
        """The column as ``array('q')`` when every id is an in-bound int id."""
        try:
            unsigned = array("Q", column)  # TypeError: not an int; OverflowError: < 0
        except (TypeError, OverflowError):
            return None
        high = int(_np.frombuffer(unsigned, _np.uint64).max()) if _np is not None else max(unsigned)
        if high >= IDENTITY_LIMIT:
            return None
        if high >= self._universe:
            self._universe = high + 1
        ids = array("q")
        ids.frombytes(memoryview(unsigned).cast("B"))
        return ids

    def _dict_ids(self, column: Sequence[ObjectId]) -> List[int]:
        """Dict-mode codes for a column: new ids interned in first-sight order."""
        codes = self._codes
        objects = self._objects
        universe = self._universe
        # dict.fromkeys, not set(): first-appearance order, so the codes
        # handed out below do not depend on the process hash seed.
        for object_id in dict.fromkeys(column):
            if object_id not in codes:
                if universe:
                    self._dict_code(object_id)
                else:
                    codes[object_id] = len(objects)
                    objects.append(object_id)
        return list(map(codes.__getitem__, column))

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

    def to_snapshot(self) -> Tuple:
        """The id space as a picklable pair.

        Identity mode serializes as ``("dense", universe)``; dict mode as
        ``("objects", every object in code order)``, the universe's ints
        first -- :meth:`from_snapshot` inverts both exactly, so codes never
        move across a snapshot round trip.
        """
        if not self._objects:
            return ("dense", self._universe)
        return ("objects", list(range(self._universe)) + self._objects)

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
        """Rebuild the id space serialized by :meth:`to_snapshot`."""
        kind, data = payload
        interner = cls()
        if kind == "dense":
            interner._universe = _checked_universe(data)
        elif kind == "objects":
            interner._objects = list(data)
            # dict(zip(...)) builds the inverse map in C -- on a 10^5-object
            # snapshot this is the single hottest line of a restore.
            interner._codes = dict(zip(data, range(len(data))))
        else:
            raise ValueError(f"unknown object-interner snapshot kind {kind!r}")
        return interner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectInterner({len(self)} objects)"


def _pack_column(values: Sequence[int], compress: bool = True) -> Tuple[str, int, bytes]:
    """``(typecode, zlib flag, data)`` with the narrowest dtype that fits."""
    high = max(values, default=0)
    typecode = "B" if high <= 0xFF else ("H" if high <= 0xFFFF else "q")
    raw = array(typecode, values).tobytes()
    if compress:
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


class EncodedBatch:
    """An interleaved event batch encoded once into dense integer columns.

    ``ids`` and ``codes`` expose the columns as ``array('q')``; the fused
    kernel sweeps the plain-list views (:attr:`id_list` /
    :attr:`code_list`), which index faster.  The id column is built as
    whichever of the two the encoder produced -- identity interning hands
    over its checked ``array('q')`` copy -- and the other form is derived on
    first use, so the vector kernel never materializes a list of ids.  A
    batch is immutable once built and remembers the :class:`ObjectInterner`
    that owns its id space, so streams can adopt a pre-encoded batch without
    re-hashing anything.
    """

    __slots__ = (
        "code_list",
        "objects",
        "alphabet",
        "max_code",
        "_id_list",
        "_max_id",
        "_ids",
        "_codes",
        "_np_ids",
        "_np_codes",
        "_np_plan",
        "_np_carried",
    )

    def __init__(
        self,
        ids: Union[List[int], array],
        code_list: List[int],
        objects: ObjectInterner,
        alphabet: Optional[RoleSetAlphabet] = None,
        max_code: Optional[int] = None,
    ) -> None:
        #: Exactly one id form is set here: an ``array('q')`` column (as
        #: identity interning produces it) or a list.
        column = isinstance(ids, array) and ids.typecode == "q"
        self._ids: Optional[array] = ids if column else None
        self._id_list: Optional[List[int]] = None if column else ids
        self.code_list = code_list
        self.objects = objects
        #: The alphabet the codes were minted against (``None`` after a wire
        #: round trip); streams refuse batches from a foreign alphabet.
        self.alphabet = alphabet
        #: ``max_code`` may be passed as an upper bound instead of the exact
        #: maximum (the encoder passes its alphabet's size, the enforcement
        #: gate its parent batch's bound): validation only compares it
        #: against the alphabet size, so any bound the codes provably stay
        #: under is safe and skips an O(n) scan.
        self.max_code = max(code_list, default=-1) if max_code is None else max_code
        self._max_id: Optional[int] = None
        self._codes: Optional[array] = None
        #: ndarray views of the columns, the cached peel plan and (for
        #: batches with more events than their streams have objects) the
        #: distinct ids, filled by :mod:`repro.engine.vector` (a batch is
        #: immutable, so all are derived once and shared by every stream the
        #: batch is fed to).
        self._np_ids = None
        self._np_codes = None
        self._np_plan = None
        self._np_carried = None

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
        ``objects`` (a fresh interner when not given).  The alphabet's size
        is the batch's ``max_code`` bound, so no pass re-scans the codes.
        """
        events = events if isinstance(events, (list, tuple)) else list(events)
        interner = objects if objects is not None else ObjectInterner()
        if not events:
            return cls([], [], interner, alphabet)
        ids = interner._intern_ids(list(map(itemgetter(0), events)))
        codes = alphabet.encode_column(list(map(itemgetter(1), events)))
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
            self._codes = _q_array(self.code_list)
        return self._codes

    def to_payload(self, compress: bool = True) -> Tuple:
        """Column bytes for the wire (the id space itself is not shipped)."""
        return (
            len(self),
            _pack_column(self.id_list, compress),
            _pack_column(self.code_list, compress),
        )

    @classmethod
    def from_payload(
        cls, payload: Tuple, objects: Optional[ObjectInterner] = None
    ) -> "EncodedBatch":
        """Rebuild the columns shipped by :meth:`to_payload`."""
        _count, ids_packed, codes_packed = payload
        return cls(
            _unpack_column(ids_packed), _unpack_column(codes_packed), objects or ObjectInterner()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedBatch({len(self)} events)"


class ColumnarHistorySet:
    """Whole object histories as one flat code column plus offsets.

    The batch-checking analogue of :class:`EncodedBatch`: history ``i`` is
    ``code_list[offsets[i]:offsets[i + 1]]``.  Shards are cut by history
    index and shipped as narrow-dtype bytes (:meth:`shard_payload`), so a
    process-pool worker receives pure integer columns.
    """

    __slots__ = ("code_list", "offsets", "alphabet", "max_code", "_codes", "_np_codes")

    def __init__(
        self,
        code_list: List[int],
        offsets: array,
        alphabet: Optional[RoleSetAlphabet] = None,
    ) -> None:
        self.code_list = code_list
        self.offsets = offsets
        #: The alphabet the codes were minted against (``None`` after a wire
        #: round trip); the engine refuses sets from a foreign alphabet.
        self.alphabet = alphabet
        self.max_code = max(code_list, default=-1)
        self._codes: Optional[array] = None
        #: ndarray view of the code column, filled by :mod:`repro.engine.vector`.
        self._np_codes = None

    @classmethod
    def from_histories(
        cls, histories: Sequence[Sequence[Symbol]], alphabet: RoleSetAlphabet
    ) -> "ColumnarHistorySet":
        """Encode every history once against the shared alphabet."""
        code_list = alphabet.encode_column(list(chain.from_iterable(histories)))
        offsets = array("q", bytes(8 * (len(histories) + 1)))
        position = 0
        for index, history in enumerate(histories):
            position += len(history)
            offsets[index + 1] = position
        return cls(code_list, offsets, alphabet)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def codes(self) -> array:
        """The flat code column as ``array('q')``."""
        if self._codes is None:
            self._codes = array("q", self.code_list)
        return self._codes

    def lengths(self, start: int = 0, stop: Optional[int] = None) -> List[int]:
        """Per-history event counts for the index range ``[start, stop)``."""
        offsets = self.offsets
        stop = len(self) if stop is None else stop
        return [offsets[i + 1] - offsets[i] for i in range(start, stop)]

    def shard_payload(self, start: int, stop: int, compress: bool = True) -> Tuple:
        """The histories ``[start, stop)`` as compact wire columns."""
        offsets = self.offsets
        return (
            stop - start,
            _pack_column(self.lengths(start, stop), compress),
            _pack_column(self.code_list[offsets[start] : offsets[stop]], compress),
        )

    @staticmethod
    def unpack_payload(payload: Tuple) -> Tuple[List[int], List[int]]:
        """``(lengths, flat code list)`` from :meth:`shard_payload` output."""
        _count, lengths_packed, codes_packed = payload
        return _unpack_column(lengths_packed), _unpack_column(codes_packed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarHistorySet({len(self)} histories, {len(self.code_list)} events)"


class Rejections:
    """The events one enforcement screen refused, as position-sorted columns.

    ``positions`` (batch positions), ``objects`` (dense ids) and ``codes``
    are parallel columns; ``states`` holds one column per kernel group with
    each refused object's pre-event dense state index.  The fused kernel
    fills lists and the vector kernel ndarrays; :meth:`records` builds the
    per-event ``(position, dense id, code, per-group states)`` tuples only
    when someone reads them, so a caller that counts refusals never does.
    """

    __slots__ = ("positions", "objects", "codes", "states")

    def __init__(self, positions, objects, codes, states: Sequence) -> None:
        self.positions = positions
        self.objects = objects
        self.codes = codes
        self.states = states

    def __len__(self) -> int:
        return len(self.positions)

    def records(self, stop: Optional[int] = None) -> List[Tuple]:
        """The first ``stop`` refusals (all by default) as tuples."""
        positions, objects, codes, *states = [
            column[:stop] if isinstance(column, list) else column[:stop].tolist()
            for column in (self.positions, self.objects, self.codes, *self.states)
        ]
        return list(zip(positions, objects, codes, zip(*states)))


class ProductCapExceeded(Exception):
    """Raised mid-construction when a group would exceed its state cap."""


class _ProductGroup:
    """The eagerly materialized reachable product of one group of specs.

    States are rows: Python lists of length ``width + 1`` whose first
    ``width`` slots hold direct references to the successor *row* for each
    shared symbol code and whose last slot holds the state's dense index.
    Advancing one event is therefore a single subscript chain.  Every state
    that is doomed for *all* specs of the group collapses onto one absorbing
    ``sink`` row.

    ``cap`` bounds construction *incrementally*: exceeding it raises
    :class:`ProductCapExceeded` from inside the closure BFS, so an
    adversarial spec combination aborts after at most ``cap + 1`` states
    instead of materializing a huge product first and checking afterwards.
    The cap applies to the initial build only; later ``ensure_state`` calls
    (state translation across kernel rebuilds) may grow past it, bounded by
    the states streams actually occupy.
    """

    __slots__ = (
        "names",
        "specs",
        "width",
        "cap",
        "rows",
        "decode",
        "index",
        "accepting",
        "spec_doomed",
        "alive",
        "sink",
        "root",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        specs: Sequence[CompiledSpec],
        width: int,
        cap: Optional[int] = None,
    ) -> None:
        self.names = names
        self.specs = list(specs)
        self.width = width
        self.cap = cap
        self.rows: List[list] = []
        self.decode: List[Tuple[int, ...]] = []
        self.index: Dict[Tuple[int, ...], int] = {}
        self.accepting: List[bytearray] = [bytearray() for _ in specs]
        self.spec_doomed: List[bytearray] = [bytearray() for _ in specs]
        #: Per product state: 1 iff *no* spec component is doomed there -- the
        #: group-wise admissibility vector of the preventive-enforcement gate
        #: (an event is admissible iff its successor state is alive).
        self.alive = bytearray()
        self.sink: Optional[list] = None
        self.root = self.rows[self.ensure_state(tuple(spec.initial for spec in specs))]
        self.cap = None  # the cap guards the initial closure only

    def _add_state(self, state: Tuple[int, ...]) -> int:
        accepting_flags = []
        doomed_flags = []
        doomed_for_all = True
        doomed_for_any = False
        for j, spec in enumerate(self.specs):
            accepting_flags.append(spec.accepting[state[j]])
            component_doomed = spec.doomed[state[j]]
            doomed_flags.append(component_doomed)
            doomed_for_all = doomed_for_all and bool(component_doomed)
            doomed_for_any = doomed_for_any or bool(component_doomed)
        if doomed_for_all and self.sink is not None:
            # Collapse onto the absorbing sink: acceptance is False forever
            # for every spec of the group, so one representative is enough.
            index = self.sink[-1]
            self.index[state] = index
            return index
        index = len(self.decode)
        if self.cap is not None and index >= self.cap:
            raise ProductCapExceeded(f"product group would exceed {self.cap} states")
        self.index[state] = index
        self.decode.append(state)
        for j in range(len(self.specs)):
            self.accepting[j].append(accepting_flags[j])
            self.spec_doomed[j].append(doomed_flags[j])
        self.alive.append(0 if doomed_for_any else 1)
        row = [None] * self.width + [index]
        self.rows.append(row)
        if doomed_for_all:
            self.sink = row
            for code in range(self.width):
                row[code] = row
        return index

    def _successor(self, state: Tuple[int, ...], code: int) -> Tuple[int, ...]:
        successor = []
        for j, spec in enumerate(self.specs):
            spec_code = spec.remap[code] if code < len(spec.remap) else -1
            component = state[j]
            if spec_code < 0 or component == spec.dead:
                successor.append(spec.dead)
            else:
                successor.append(spec.table[component * spec.n_symbols + spec_code])
        return tuple(successor)

    def ensure_state(self, state: Tuple[int, ...]) -> int:
        """The dense index of ``state``, materializing its closure on demand."""
        found = self.index.get(state)
        if found is not None:
            return found
        first = self._add_state(state)
        frontier = [first]
        while frontier:
            index = frontier.pop()
            row = self.rows[index]
            if row[0] is not None:
                continue  # already closed (the sink self-loops at creation)
            source = self.decode[index]
            for code in range(self.width):
                successor = self._successor(source, code)
                known = self.index.get(successor)
                if known is None:
                    known = self._add_state(successor)
                    if self.rows[known][0] is None:
                        frontier.append(known)
                row[code] = self.rows[known]
        return first

    def __len__(self) -> int:
        return len(self.decode)


def _build_group(
    names: Tuple[str, ...], specs: Sequence[CompiledSpec], width: int, cap: Optional[int]
) -> Optional[_ProductGroup]:
    """The product group, or ``None`` when it would exceed ``cap`` states."""
    try:
        return _ProductGroup(names, specs, width, cap)
    except ProductCapExceeded:
        return None


class FusedKernel:
    """Every registered spec fused into greedily packed product groups.

    Most spec sets fit one group, so :meth:`advance_all` is literally a
    single pass over the encoded batch; a spec whose addition would blow the
    product cap starts a new group (degenerating, at worst, to one spec per
    group -- still hash-free columnar sweeps).
    """

    __slots__ = ("names", "width", "groups", "locate", "key", "obs")

    #: Which kernel implementation this is; shard tasks and engine kernel
    #: keys carry it so worker-local caches rebuild the right kind.
    kind = "fused"

    def __init__(
        self,
        specs: Sequence[Tuple[str, CompiledSpec]],
        width: int,
        cap: int = PRODUCT_STATE_CAP,
        key: Tuple = (),
    ) -> None:
        self.names: Tuple[str, ...] = tuple(name for name, _spec in specs)
        self.width = width
        self.key = key
        #: Kernel-layer observability instruments
        #: (:class:`repro.obs.instruments.KernelInstruments`) or ``None``;
        #: assigned by the owning engine, so the disabled hot path pays one
        #: attribute check and nothing else.
        self.obs = None
        self.groups: List[_ProductGroup] = []
        self.locate: Dict[str, Tuple[int, int]] = {}
        pending_names: List[str] = []
        pending_specs: List[CompiledSpec] = []
        current: Optional[_ProductGroup] = None
        for name, spec in specs:
            attempt = _build_group(
                tuple(pending_names + [name]), pending_specs + [spec], width, cap
            )
            if attempt is not None:
                pending_names.append(name)
                pending_specs.append(spec)
                current = attempt
            elif current is not None:
                # Adding this spec would blow the cap: seal the group built
                # so far and open a new one with the spec alone (a single
                # spec is always admitted, whatever its size).
                self.groups.append(current)
                pending_names, pending_specs = [name], [spec]
                current = _build_group((name,), [spec], width, None)
            else:
                self.groups.append(_build_group((name,), [spec], width, None))
                pending_names, pending_specs, current = [], [], None
        if current is not None:
            self.groups.append(current)
        for group_index, group in enumerate(self.groups):
            for j, name in enumerate(group.names):
                self.locate[name] = (group_index, j)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def new_columns(self, n_objects: int = 0) -> List[list]:
        """One dense state column per group, every object at the group root."""
        return [[group.root] * n_objects for group in self.groups]

    def grow_columns(self, columns: List[list], n_objects: int) -> None:
        """Extend each column so freshly interned objects start at the root."""
        for group, column in zip(self.groups, columns):
            missing = n_objects - len(column)
            if missing > 0:
                column.extend([group.root] * missing)

    def advance_all(self, columns: List[list], batch: EncodedBatch) -> int:
        """Advance every spec over one encoded batch; returns the event count.

        One pass per group; the inner loop is a pure subscript chain.  A
        group whose whole population has collapsed onto its doomed sink (and
        which the batch introduces no new objects to) skips its pass
        entirely -- the doomed-population early exit.
        """
        id_list = batch.id_list
        code_list = batch.code_list
        if not id_list:
            return 0
        obs = self.obs
        if obs is not None:
            obs.batches_total.inc()
            obs.events_total.inc(len(id_list))
        max_id = batch.max_id
        for group, column in zip(self.groups, columns):
            sink = group.sink
            if sink is not None and max_id < len(column) and all(r is sink for r in column):
                if obs is not None:
                    obs.sink_skips.inc()
                continue  # whole population doomed for every spec of the group
            for o, c in zip(id_list, code_list):
                column[o] = column[o][c]
        return len(id_list)

    # ------------------------------------------------------------------ #
    # Preventive enforcement
    # ------------------------------------------------------------------ #
    def _successor_index(self, group_index: int, state: int, code: int) -> int:
        """The dense successor-state index for one ``(state, code)`` step."""
        return self.groups[group_index].rows[state][code][-1]

    def admissible_code(
        self, columns: List[list], dense: int, code: int, only: Optional[str] = None
    ) -> bool:
        """Whether admitting one encoded event keeps acceptance possible.

        O(1) per group: one successor lookup plus one ``alive`` flag read --
        no replay, no column scan.  ``only`` restricts the question to one
        spec (its ``spec_doomed`` flag); otherwise the event must keep
        *every* spec of the session non-doomed.  Codes outside the kernel's
        alphabet width (or ``-1``) are never admissible: they are outside
        every registered spec's alphabet, so their successor is dead
        everywhere.
        """
        if code < 0 or code >= self.width:
            return not self.groups if only is None else False
        if only is not None:
            group_index, j = self.locate[only]
            state = self.state_of(columns, group_index, dense)
            successor = self._successor_index(group_index, state, code)
            return not self.groups[group_index].spec_doomed[j][successor]
        for group_index, group in enumerate(self.groups):
            state = self.state_of(columns, group_index, dense)
            if not group.alive[self._successor_index(group_index, state, code)]:
                return False
        return True

    def blocking_specs(self, states: Sequence[int], code: int) -> Tuple[str, ...]:
        """The specs a rejected event would have doomed, most specific first.

        ``states`` holds the object's pre-event dense state index per group
        (the shape :meth:`advance_all_enforced` records on each rejection).
        Specs that become doomed *by this event* lead; when none do (the
        object was already doomed before enforcement began), every spec
        doomed at the successor is listed instead.
        """
        newly: List[str] = []
        already: List[str] = []
        for group_index, group in enumerate(self.groups):
            state = states[group_index]
            if code < 0 or code >= self.width:
                successor = None  # outside every alphabet: dead for all specs
            else:
                successor = self._successor_index(group_index, state, code)
            for j, name in enumerate(group.names):
                doomed_after = True if successor is None else bool(
                    group.spec_doomed[j][successor]
                )
                if not doomed_after:
                    continue
                if group.spec_doomed[j][state]:
                    already.append(name)
                else:
                    newly.append(name)
        return tuple(newly) if newly else tuple(already)

    def component_states(self, columns: List[list], name: str) -> List[int]:
        """One spec's per-object DFA state column (decoded from the product).

        The delta-extraction read of re-registration: objects still at the
        spec's initial state need no re-validation after a reset.
        """
        group_index, j = self.locate[name]
        decode = self.groups[group_index].decode
        return [decode[row[-1]][j] for row in columns[group_index]]

    def advance_all_enforced(
        self, columns: List[list], batch: EncodedBatch
    ) -> Tuple[List[list], Rejections]:
        """Screen-and-advance one batch on *copies* of ``columns``.

        The transactional half of ``feed_events(..., enforce=True)``: the
        caller's columns are never touched, so a ``reject_batch`` policy can
        discard the copies wholesale.  Per event, the successor state of
        every group is checked against the group's ``alive`` vector; an
        event whose successor is doomed for any spec is *not* applied and is
        recorded with its position, dense id, code and per-group pre-event
        state indices.  Later events of the same object screen against the
        state *without* the rejected event -- exactly the ``reject_event``
        skip-and-continue semantics.  Returns ``(new columns, rejections)``.
        """
        copies = [list(column) for column in columns]
        positions: List[int] = []
        objects: List[int] = []
        codes: List[int] = []
        states: List[List[int]] = [[] for _ in copies]
        id_list = batch.id_list
        code_list = batch.code_list
        if len(copies) == 1:
            column = copies[0]
            alive = self.groups[0].alive
            pre = states[0]
            for p, (o, c) in enumerate(zip(id_list, code_list)):
                row = column[o]
                successor = row[c]
                if alive[successor[-1]]:
                    column[o] = successor
                else:
                    positions.append(p)
                    objects.append(o)
                    codes.append(c)
                    pre.append(row[-1])
            return copies, Rejections(positions, objects, codes, states)
        alive_flags = [group.alive for group in self.groups]
        for p, (o, c) in enumerate(zip(id_list, code_list)):
            rows = [column[o] for column in copies]
            successors = [row[c] for row in rows]
            if all(
                flags[successor[-1]]
                for flags, successor in zip(alive_flags, successors)
            ):
                for column, successor in zip(copies, successors):
                    column[o] = successor
            else:
                positions.append(p)
                objects.append(o)
                codes.append(c)
                for pre, row in zip(states, rows):
                    pre.append(row[-1])
        return copies, Rejections(positions, objects, codes, states)

    def fatal_histories(
        self, code_list, lengths: Sequence[int]
    ) -> Dict[str, List[Optional[int]]]:
        """Per-spec first-fatal indices for contiguous per-history code runs.

        The whole-history analogue of :func:`repro.engine.diagnostics.
        replay`: for each history and spec, the index of the first event
        after which acceptance became impossible -- ``None`` when the
        history stays salvageable throughout, ``-1`` when the spec's
        language is empty (doomed before any event).  This is the shardable
        screening primitive behind ``engine.screen_histories``.
        """
        results: Dict[str, List[Optional[int]]] = {}
        for group in self.groups:
            root = group.root
            root_index = root[-1]
            n_specs = len(group.specs)
            doomed = group.spec_doomed
            per_spec: List[List[Optional[int]]] = [[] for _ in range(n_specs)]
            position = 0
            for length in lengths:
                fatal: List[Optional[int]] = [
                    -1 if doomed[j][root_index] else None for j in range(n_specs)
                ]
                pending = fatal.count(None)
                if pending:
                    r = root
                    for offset in range(length):
                        r = r[code_list[position + offset]]
                        index = r[-1]
                        for j in range(n_specs):
                            if fatal[j] is None and doomed[j][index]:
                                fatal[j] = offset
                                pending -= 1
                        if not pending:
                            break
                position += length
                for j in range(n_specs):
                    per_spec[j].append(fatal[j])
            for j, name in enumerate(group.names):
                results[name] = per_spec[j]
        return results

    def verdicts_of(
        self, name: str, column_set: List[list], seen: Iterable[int]
    ) -> Dict[int, bool]:
        """Dense-id verdicts for one spec over the tracked population."""
        group_index, j = self.locate[name]
        accepting = self.groups[group_index].accepting[j]
        column = column_set[group_index]
        return {o: accepting[column[o][-1]] == 1 for o in seen}

    def state_of(self, columns: List[list], group_index: int, dense: int) -> int:
        """The dense product-state index of one object in one group.

        Objects outside the column (never fed) rest at the group root.  This
        is the kind-neutral read: fused columns hold row references, vector
        columns hold the indices themselves, and both answer the same int.
        """
        column = columns[group_index]
        if 0 <= dense < len(column):
            return column[dense][-1]
        return self.groups[group_index].root[-1]

    def index_columns(self, columns: List[list]) -> List[List[int]]:
        """Per-group dense product-state indices -- the kind-neutral view of
        a column set, the interchange format for state translation and
        snapshots across kernel kinds."""
        return [[row[-1] for row in column] for column in columns]

    def _columns_from_indices(self, index_columns: List[List[int]]) -> List[list]:
        """Materialize kind-specific columns from dense state indices.

        The write-side counterpart of :meth:`index_columns`; every index
        must already be materialized in its group (``ensure_state``).
        """
        return [
            list(map(group.rows.__getitem__, indices))
            for group, indices in zip(self.groups, index_columns)
        ]

    def translate_columns(
        self,
        previous: "FusedKernel",
        columns: List[list],
        reset: Sequence[str] = (),
    ) -> List[list]:
        """Carry per-object states from ``previous`` into this kernel.

        Specs named in ``reset`` restart at their (new) initial state; every
        other spec keeps its progress -- compiled tables are deterministic,
        so state numbers transfer across recompiles and kernel rebuilds.
        Memoized per distinct cross-group state signature.  ``previous`` may
        be of a different kernel kind: states travel as dense indices via
        :meth:`index_columns`, so a stream can switch between the fused and
        vector kernels mid-session without losing progress.
        """
        index_columns = previous.index_columns(columns)
        n_objects = len(index_columns[0]) if index_columns else 0
        resets = set(reset)
        memo: Dict[Tuple[int, ...], List[int]] = {}
        fresh: List[List[int]] = [[] for _ in self.groups]
        initials = {
            name: self.groups[gi].specs[j].initial for name, (gi, j) in self.locate.items()
        }
        for o in range(n_objects):
            signature = tuple(column[o] for column in index_columns)
            indices = memo.get(signature)
            if indices is None:
                states: Dict[str, int] = {}
                for group, index in zip(previous.groups, signature):
                    components = group.decode[index]
                    for j, name in enumerate(group.names):
                        states[name] = components[j]
                for name in self.names:
                    if name in resets or name not in states:
                        states[name] = initials[name]
                indices = [
                    group.ensure_state(tuple(states[name] for name in group.names))
                    for group in self.groups
                ]
                memo[signature] = indices
            for target, index in zip(fresh, indices):
                target.append(index)
        return self._columns_from_indices(fresh)

    def columns_from_states(
        self, states: Dict[str, Sequence[int]], n_objects: int
    ) -> List[list]:
        """Dense state columns rebuilt from *per-spec* DFA state columns.

        The general restore path of :mod:`repro.engine.snapshot`: compiled
        tables are deterministic, so per-spec state integers are stable
        across processes and kernel rebuilds; each object's cross-spec
        signature is materialized into this kernel's product rows via
        ``ensure_state`` (memoized per distinct signature, so the loop cost
        is dominated by the zip, not the product walk).
        """
        index_columns: List[List[int]] = []
        for group in self.groups:
            group_states = [states[name] for name in group.names]
            memo: Dict[Tuple[int, ...], int] = {}
            indices: List[int] = []
            append = indices.append
            for signature in zip(*group_states):
                index = memo.get(signature)
                if index is None:
                    index = memo[signature] = group.ensure_state(signature)
                append(index)
            if len(indices) != n_objects:  # zero-spec group cannot happen; guard anyway
                indices.extend([group.root[-1]] * (n_objects - len(indices)))
            index_columns.append(indices)
        return self._columns_from_indices(index_columns)

    # ------------------------------------------------------------------ #
    # Snapshot payloads
    # ------------------------------------------------------------------ #
    def snapshot_groups(self, columns: List[list]) -> List[Dict]:
        """Compact per-group wire payloads for :mod:`repro.engine.snapshot`.

        The *occupied* product states are listed once as per-spec component
        tuples and the per-object column ships as narrow-dtype indices into
        that list.  The format is identical across kernel kinds, so a
        snapshot written under one kind restores under the other.
        """
        groups: List[Dict] = []
        for group, indices in zip(self.groups, self.index_columns(columns)):
            occupied = sorted(set(indices))
            position = {index: p for p, index in enumerate(occupied)}
            groups.append(
                {
                    "names": group.names,
                    "states": [group.decode[index] for index in occupied],
                    "column": _pack_column(list(map(position.__getitem__, indices))),
                }
            )
        return groups

    def restore_group_columns(
        self, groups: Sequence[Dict], initials: Dict[str, int], resets: set
    ) -> Optional[List[list]]:
        """Columns rebuilt group-for-group when the snapshot grouping matches.

        The common restore (same specs, same registration order, same
        product packing): each *occupied* product state is re-materialized
        exactly once and the per-object column is one C-speed map through
        the lookup list.  Returns ``None`` when this kernel groups specs
        differently, handing over to the general per-spec translation path
        (:meth:`columns_from_states`).
        """
        lookups = self._restore_lookups(groups, initials, resets)
        if lookups is None:
            return None
        return self._columns_from_indices(
            [
                list(
                    map(
                        lookup.__getitem__,
                        _unpack_column(payload["column"], limit=COLUMN_WIRE_LIMIT),
                    )
                )
                for payload, lookup in zip(groups, lookups)
            ]
        )

    def _restore_lookups(
        self, groups: Sequence[Dict], initials: Dict[str, int], resets: set
    ) -> Optional[List[List[int]]]:
        """Per group, the dense index of each occupied state a snapshot lists.

        ``None`` when the snapshot grouped its specs differently.  Reset
        specs' components are replaced by their initial states before the
        states are materialized (``ensure_state``).
        """
        if len(groups) != len(self.groups):
            return None
        for payload, group in zip(groups, self.groups):
            if tuple(payload["names"]) != group.names:
                return None
        lookups: List[List[int]] = []
        for payload, group in zip(groups, self.groups):
            states = payload["states"]
            if resets.intersection(group.names):
                states = [
                    tuple(
                        initials[name] if name in resets else component
                        for name, component in zip(group.names, signature)
                    )
                    for signature in states
                ]
            lookups.append([group.ensure_state(tuple(signature)) for signature in states])
        return lookups

    # ------------------------------------------------------------------ #
    # Batch checking
    # ------------------------------------------------------------------ #
    def check_histories(
        self, code_list: List[int], lengths: Sequence[int]
    ) -> Dict[str, List[bool]]:
        """Per-spec verdicts for contiguous per-history code runs."""
        obs = self.obs
        if obs is not None:
            obs.histories_total.inc(len(lengths))
        verdicts: Dict[str, List[bool]] = {}
        for group in self.groups:
            root = group.root
            final: List[int] = []
            append = final.append
            position = 0
            for length in lengths:
                r = root
                for c in code_list[position : position + length]:
                    r = r[c]
                append(r[-1])
                position += length
            for j, name in enumerate(group.names):
                accepting = group.accepting[j]
                verdicts[name] = list(map(bool, map(accepting.__getitem__, final)))
        return verdicts

    def check_history_set(self, history_set: ColumnarHistorySet) -> Dict[str, List[bool]]:
        """Per-spec verdicts for a whole encoded history set (kind-specific).

        The serial entry point of ``check_batch_all``: subclasses may read
        the set's columns in their native layout instead of via the plain
        lists.
        """
        return self.check_histories(history_set.code_list, history_set.lengths())

    def shard_payload(self, history_set: ColumnarHistorySet, start: int, stop: int) -> Tuple:
        """The wire payload for histories ``[start, stop)`` (kind-specific).

        The fused kernel ships narrow-dtype zlib-packed column bytes; the
        vector kernel overrides this with raw buffer-protocol ndarray bytes
        (no compression round trip -- the worker gathers straight off the
        received buffers).
        """
        return history_set.shard_payload(start, stop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(len(group)) for group in self.groups)
        return f"FusedKernel({len(self.names)} specs, states {sizes})"


# --------------------------------------------------------------------------- #
# Shard dispatch
# --------------------------------------------------------------------------- #
#: Reserved verdict-dict key carrying a shard's observability payload (span
#: tree + worker-cache deltas) back to the dispatching engine.  NUL-prefixed
#: so it can never collide with a registered spec name that a user would
#: plausibly type.
OBS_RESULT_KEY = "\x00obs"

#: Kernels a long-lived pool worker keeps across shards.  Spec
#: re-registrations and alphabet growth mint fresh keys, so the cap is what
#: keeps a tenant churning generations from growing worker memory without
#: bound.
WORKER_KERNEL_CACHE_SIZE = 32


class _WorkerKernelCache:
    """A tiny LRU for worker-side kernels, with hit/miss/eviction counts.

    The predecessor was a plain dict flushed wholesale at 64 entries: every
    spec re-registration in a long-lived pool minted a new key (generations
    are part of the kernel key), so steady-state churn periodically dropped
    *every* warm kernel at once.  The LRU evicts only the coldest entry and
    keeps honest counters, which shards report back to the dispatching
    engine's registry (:data:`OBS_RESULT_KEY`).
    """

    __slots__ = ("maxsize", "_entries", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = WORKER_KERNEL_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, FusedKernel]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple) -> Optional[FusedKernel]:
        kernel = self._entries.get(key)
        if kernel is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return kernel

    def put(self, key: Tuple, kernel: FusedKernel) -> None:
        self._entries[key] = kernel
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }


#: The per-process worker cache (one per pool worker; also serves in-process
#: callers of :func:`check_columnar_shard`).
_WORKER_KERNELS = _WorkerKernelCache()


def worker_kernel_cache_stats() -> Dict[str, int]:
    """This process's worker-kernel-cache counters (introspection surface)."""
    return _WORKER_KERNELS.stats()


def make_shard_task(
    kernel: FusedKernel,
    specs: Sequence[Tuple[str, CompiledSpec]],
    payload: Tuple,
    obs_token: Optional[int] = None,
    mode: Optional[str] = None,
) -> Tuple:
    """One process-pool task: spec references, compact blobs, column bytes.

    ``obs_token`` -- the dispatching span's id (0 for metrics-only) -- is
    appended only when observability is on, so the disabled wire format is
    byte-identical to the uninstrumented one.  ``mode`` selects the worker
    computation: ``None`` (membership verdicts, the historical wire shape)
    or ``"screen"`` (per-history first-fatal indices for the enforcement
    audit, :meth:`FusedKernel.fatal_histories`); a mode-carrying task is a
    5-tuple whose fourth slot holds the obs token or ``None``.
    """
    blobs = tuple(spec.to_blob() for _name, spec in specs)
    if mode is not None:
        return (kernel.key, blobs, payload, obs_token, mode)
    if obs_token is None:
        return (kernel.key, blobs, payload)
    return (kernel.key, blobs, payload, obs_token)


def check_columnar_shard(task: Tuple) -> Dict[str, List[bool]]:
    """Check one encoded shard (module-level so process pools can pickle it).

    When the task carries an observability token, the verdict dict also
    carries :data:`OBS_RESULT_KEY`: the shard's span (duration + history
    count, recorded on this worker's clock), the parent span id to graft it
    under, and the worker-cache delta for this call -- the engine pops the
    key, merges the numbers into its registry, and attaches the span to the
    dispatching trace.
    """
    _fire("worker.shard")
    key, blobs, payload = task[0], task[1], task[2]
    obs_token = task[3] if len(task) > 3 else None
    mode = task[4] if len(task) > 4 else None
    start = perf_counter() if obs_token is not None else 0.0
    kernel = _WORKER_KERNELS.get(key)
    cache_hit = kernel is not None
    if kernel is None:
        _engine_token, references, width, cap, kind = key
        specs = [
            (name, CompiledSpec.from_blob(blob))
            for (name, _generation), blob in zip(references, blobs)
        ]
        if kind == "vector":
            from repro.engine.vector import VectorKernel

            kernel = VectorKernel(specs, width, cap, key=key)
        else:
            kernel = FusedKernel(specs, width, cap, key=key)
        _WORKER_KERNELS.put(key, kernel)
    if payload[1][0] == "nd":
        from repro.engine.vector import unpack_shard_arrays

        lengths, code_list = unpack_shard_arrays(payload)
    else:
        lengths, code_list = ColumnarHistorySet.unpack_payload(payload)
    if mode == "screen":
        result = kernel.fatal_histories(code_list, lengths)
    else:
        result = kernel.check_histories(code_list, lengths)
    if obs_token is not None:
        result[OBS_RESULT_KEY] = {
            "parent": obs_token,
            "span": {
                "name": "shard.check",
                "duration": perf_counter() - start,
                "meta": {"histories": len(lengths), "kind": kernel.kind},
            },
            "cache_hit": cache_hit,
            "cache_size": len(_WORKER_KERNELS),
        }
    return result


__all__ = [
    "COLUMN_WIRE_LIMIT",
    "IDENTITY_LIMIT",
    "OBS_RESULT_KEY",
    "PRODUCT_STATE_CAP",
    "WORKER_KERNEL_CACHE_SIZE",
    "ObjectInterner",
    "EncodedBatch",
    "Rejections",
    "ColumnarHistorySet",
    "FusedKernel",
    "make_shard_task",
    "check_columnar_shard",
    "worker_kernel_cache_stats",
]
