"""The monitor's kernel: product automata advanced by numpy gathers.

:class:`VectorKernel` fuses every registered spec into the reachable
*product* automaton, greedily packed into groups under
:data:`PRODUCT_STATE_CAP` states (a spec whose addition would exceed the cap
starts a new group -- at worst one spec per group).  Each
:class:`_ProductGroup` numbers its states densely; ``rows[s][c]`` is the
index of state ``s``'s successor on shared symbol code ``c``, and every
state doomed for *all* specs of the group collapses onto one absorbing
``sink`` state.  The kernel mirrors each group as a flat ndarray transition
table of shape ``(states, symbols)`` in the narrowest unsigned dtype that
fits (the uint8/uint16/uint32 ladder) and keeps the per-object state
columns as ndarrays of dense state indices, so advancing a batch is a
handful of whole-column gathers.  A group whose whole population sits on
its sink skips the batch (the doomed-population early exit).

The interesting part is *ordering*: events of one object must be applied in
sequence, but a flat gather advances every event at once.  The kernel cuts
the batch into chunks of :data:`PEEL_CHUNK` events and repeatedly *peels*
the first pending occurrence of every object off the chunk with a scatter
trick::

    rev = idx[::-1]
    pos[cids[rev]] = rev          # last write wins = first occurrence
    first = pos[cids[idx]] == idx

Each peel round advances all its events with one fancy gather/scatter
(``column[o] = table[column[o], c]``) and drops them from the chunk; the
round count equals the chunk's maximum per-object event multiplicity
(single digits on realistic interleavings).  The peel *plan* depends only
on the batch's immutable columns, so it is computed once, cached on the
batch, and replayed for every group of every stream the batch is fed to.
A pathologically skewed chunk (one object owning more than
:data:`PEEL_DEPTH_LIMIT` events) applies the remaining tail through a
cached nested-list scalar loop instead of degenerating into thousands of
near-empty rounds.

Whole histories (``check_histories``, ``fatal_histories``) share one round
driver: histories are radix-sorted longest first, and round ``r`` advances
the still-active prefix with one gather -- the active counts come from one
``bincount``/``cumsum`` over the lengths.  Screening adds one row gather of
live flags per round: doom is absorbing, so a first-fatal index is a count.

Pre-encoded columns are checked at the ingest boundary
(:func:`check_batch`, :func:`check_history_columns`) with one reduction per
column, so a bare-column batch cannot index past a table or a state column
and a history set's offsets cut its codes into histories exactly.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import (
    COLUMN_WIRE_LIMIT,
    ColumnarHistorySet,
    EncodedBatch,
    _unpack_array,
)
from repro.engine.compiler import CompiledSpec
from repro.engine.snapshot import SnapshotError

#: Product states per fused group before the kernel starts a new group.
#: Doomed-state collapse keeps realistic spec sets far below this; the cap
#: only guards adversarial spec combinations from materializing a huge
#: product (they fall back to smaller groups, down to one spec per group).
PRODUCT_STATE_CAP = 20_000

#: Events per peel chunk.  Large enough that per-round numpy overhead
#: amortizes, small enough that the peel working set stays cache-resident
#: and a chunk's round count tracks the *local* object multiplicity.
PEEL_CHUNK = 8192

#: Peel rounds per chunk before the remaining (skew-dominated) tail falls
#: back to the cached scalar loop: each extra round past this point would
#: advance only the handful of objects flooding the chunk.
PEEL_DEPTH_LIMIT = 32

#: Slots of the peel plan's first-occurrence scratch (a power of two).  Ids
#: below it index the scratch directly; larger ids share slots by their low
#: bits, so a plan never allocates per slot of the identity universe.  Four
#: slots per chunk event keep sharing (which only costs extra rounds) rare.
PEEL_SLOTS = 4 * PEEL_CHUNK


def _dtype_for(n_states: int):
    """The narrowest unsigned dtype holding state indices ``0..n_states-1``."""
    if n_states <= 1 << 8:
        return np.uint8
    if n_states <= 1 << 16:
        return np.uint16
    return np.uint32


# --------------------------------------------------------------------------- #
# Column caches on the shared batch types
# --------------------------------------------------------------------------- #
def _id_array(batch: EncodedBatch):
    """The batch id column as an int64 ndarray (zero-copy view, cached).

    ``batch.ids`` is built once and never resized, so a buffer view is safe.
    """
    if batch._np_ids is None:
        batch._np_ids = np.frombuffer(batch.ids, dtype=np.int64)
    return batch._np_ids


def _code_array(batch: EncodedBatch):
    """The batch code column as an int64 ndarray (zero-copy view, cached)."""
    if batch._np_codes is None:
        batch._np_codes = np.frombuffer(batch.codes, dtype=np.int64)
    return batch._np_codes


def _history_code_array(history_set: ColumnarHistorySet):
    """The flat history code column as an ndarray (zero-copy view, cached)."""
    if history_set._np_codes is None:
        history_set._np_codes = np.frombuffer(history_set.codes, dtype=np.int64)
    return history_set._np_codes


def _q_column(values) -> array:
    """An int64 ndarray as ``array('q')``, one buffer copy (no list)."""
    column = array("q")
    column.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.int64)).cast("B"))
    return column


def _flat_index(states, width: int, codes):
    """Offsets of ``(states, codes)`` into a raveled ``(states, width)`` table.

    ``table.ravel()[_flat_index(...)]`` is ``table[states, codes]``, but as a
    1-D gather: two-array fancy indexing goes through numpy's general
    multi-index iterator, and folding the pair into offsets first (three
    cheap element-wise passes) makes the gather ~2x faster.
    """
    index = states.astype(np.intp)
    index *= width
    index += codes
    return index


def mark_present(mask: bytearray, batch: EncodedBatch, refused: Sequence[int] = ()):
    """Set ``mask[o] = 1`` for every object ``batch`` carried, in one scatter.

    ``refused`` batch positions (the enforcement gate's) carried nothing and
    are left out.  Returns the carried ids, in batch order, as an ndarray.
    The mask must already cover every id of the batch.
    """
    ids = _id_array(batch)
    targets = ids
    if len(refused):
        keep = np.ones(len(ids), dtype=bool)
        keep[refused] = False
        ids = targets = ids[keep]
    elif len(ids) > len(mask):
        # More events than slots: collapse the batch to its distinct ids once
        # (a bincount costs about one scatter) and keep them with the peel
        # plan, so every later feed of the batch scatters only those.
        if batch._np_carried is None:
            batch._np_carried = np.flatnonzero(np.bincount(ids))
        targets = batch._np_carried
    np.frombuffer(mask, dtype=np.uint8)[targets] = 1
    return ids


# --------------------------------------------------------------------------- #
# Ingest-boundary checks of pre-encoded columns
# --------------------------------------------------------------------------- #
def _unsigned_max(values) -> int:
    """The largest of ``values`` read as unsigned (``-1`` when empty): a
    negative int64 reads as at least 2**63, so one max bounds both ends."""
    return int(values.view(np.uint64).max()) if values.size else -1


def check_batch(batch: EncodedBatch, n_symbols: int) -> None:
    """Refuse a batch with an id outside its id space or a code outside
    ``[0, n_symbols)``, whatever its ``max_code`` claims.

    One unsigned max per column, computed once per batch and kept on it
    (the columns are immutable, and the id space and the alphabet only
    grow); a batch that passes also caches its exact ``max_id``.  The error
    names the first event with either entry out of range.
    """
    ids, codes = _id_array(batch), _code_array(batch)
    highs = batch._np_highs
    if highs is None:
        highs = batch._np_highs = (_unsigned_max(ids), _unsigned_max(codes))
    n_ids = len(batch.objects)
    if highs[0] >= n_ids or highs[1] >= n_symbols:
        bad = (ids.view(np.uint64) >= n_ids) | (codes.view(np.uint64) >= n_symbols)
        position = int(np.argmax(bad))
        raise ValueError(
            f"the encoded batch carries object id {ids[position]} and symbol code "
            f"{codes[position]} at position {position}; ids must lie in [0, {n_ids}) "
            f"and codes in [0, {n_symbols})"
        )
    batch._max_id = highs[0]


def check_history_columns(history_set: ColumnarHistorySet, n_symbols: int) -> None:
    """Refuse a history set whose offsets do not cut its codes into
    histories, or that carries a code outside ``[0, n_symbols)`` whatever
    its ``max_code`` claims; the error names the first bad history or code.

    The offsets must start at 0, never decrease and end at the number of
    codes, so every code belongs to exactly one history.  One ``diff`` pass
    over the offsets and one unsigned max over the codes.
    """
    codes = _history_code_array(history_set)
    offsets = np.asarray(history_set.offsets, dtype=np.int64)
    n_codes = len(codes)
    lengths = np.diff(offsets)
    # 0 == offsets[0] <= offsets[1] <= ... <= offsets[-1] == n_codes
    framed = len(offsets) and offsets[0] == 0 and offsets[-1] == n_codes
    if not (framed and lengths.min(initial=0) == 0):
        if len(offsets) < 2:
            raise ValueError(
                f"the encoded history set has offsets {offsets.tolist()} for {n_codes} "
                f"codes; offsets must start at 0 and end at {n_codes}"
            )
        bad = (lengths < 0) | (offsets[1:] > n_codes)
        bad[0] |= offsets[0] != 0
        bad[-1] |= offsets[-1] != n_codes
        index = int(np.argmax(bad))
        raise ValueError(
            f"the encoded history set's history {index} spans offsets {offsets[index]} to "
            f"{offsets[index + 1]}; offsets must start at 0, never decrease and end at "
            f"{n_codes}, the number of codes"
        )
    if _unsigned_max(codes) >= n_symbols:
        position = int(np.argmax(codes.view(np.uint64) >= n_symbols))
        raise ValueError(
            f"the encoded history set carries symbol code {codes[position]} at position "
            f"{position}; codes must lie in [0, {n_symbols})"
        )


# --------------------------------------------------------------------------- #
# Snapshot column packing
# --------------------------------------------------------------------------- #
def pack_index_array(values) -> Tuple[str, int, bytes]:
    """A state column in the ``(typecode, zlib flag, bytes)`` wire form of
    :func:`repro.engine.batch._pack_column`, serialized straight from the
    array buffer.

    The typecode is the narrowest of ``B``/``H``/``q`` that holds the largest
    entry, and the flag is always 0: the raw bytes cost less to write than
    to compress.
    """
    high = int(values.max()) if values.size else 0
    if high <= 0xFF:
        typecode, dtype = "B", np.uint8
    elif high <= 0xFFFF:
        typecode, dtype = "H", np.uint16
    else:
        typecode, dtype = "q", np.int64
    return typecode, 0, values.astype(dtype, copy=False).tobytes()


# --------------------------------------------------------------------------- #
# Product groups
# --------------------------------------------------------------------------- #
class Rejections:
    """The events one enforcement screen refused, as position-sorted columns.

    ``positions`` (batch positions), ``objects`` (dense ids) and ``codes``
    are parallel columns; ``states`` holds one column per kernel group with
    each refused object's pre-event dense state index.  :meth:`records`
    builds the per-event ``(position, dense id, code, per-group states)``
    tuples only when someone reads them, so a caller that counts refusals
    never does.
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
            column[:stop].tolist()
            for column in (self.positions, self.objects, self.codes, *self.states)
        ]
        return list(zip(positions, objects, codes, zip(*states)))


class ProductCapExceeded(Exception):
    """Raised mid-construction when a group would exceed its state cap."""


class _ProductGroup:
    """The eagerly materialized reachable product of one group of specs.

    States are dense indices; ``rows[s]`` lists, per shared symbol code, the
    index of state ``s``'s successor.  ``root`` is the initial state's
    index.  Every state that is doomed for *all* specs of the group
    collapses onto one absorbing ``sink`` state (``-1`` until one is
    reached).

    ``cap`` bounds construction *incrementally*: exceeding it raises
    :class:`ProductCapExceeded` from inside the closure BFS, so an
    adversarial spec combination aborts after at most ``cap + 1`` states
    instead of materializing a huge product first and checking afterwards.
    The cap applies to the initial build only; later ``ensure_state`` calls
    (the state carry of kernel rebuilds and restores) may grow past it,
    bounded by the states streams actually occupy.
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
        #: Per state, its successor indices; ``None`` while its closure is
        #: still pending inside :meth:`ensure_state`.
        self.rows: List[Optional[List[int]]] = []
        self.decode: List[Tuple[int, ...]] = []
        self.index: Dict[Tuple[int, ...], int] = {}
        self.accepting: List[bytearray] = [bytearray() for _ in specs]
        self.spec_doomed: List[bytearray] = [bytearray() for _ in specs]
        #: Per product state: 1 iff *no* spec component is doomed there -- the
        #: group-wise admissibility vector of the preventive-enforcement gate
        #: (an event is admissible iff its successor state is alive).
        self.alive = bytearray()
        self.sink = -1
        self.root = self.ensure_state(tuple(spec.initial for spec in specs))
        self.cap = None  # the cap guards the initial closure only

    def _add_state(self, state: Tuple[int, ...]) -> int:
        accepting_flags = []
        doomed_flags = []
        for j, spec in enumerate(self.specs):
            accepting_flags.append(spec.accepting[state[j]])
            doomed_flags.append(spec.doomed[state[j]])
        doomed_for_all = all(doomed_flags)
        if doomed_for_all and self.sink >= 0:
            # Collapse onto the absorbing sink: acceptance is False forever
            # for every spec of the group, so one representative is enough.
            self.index[state] = self.sink
            return self.sink
        index = len(self.decode)
        if self.cap is not None and index >= self.cap:
            raise ProductCapExceeded(f"product group would exceed {self.cap} states")
        self.index[state] = index
        self.decode.append(state)
        for j in range(len(self.specs)):
            self.accepting[j].append(accepting_flags[j])
            self.spec_doomed[j].append(doomed_flags[j])
        self.alive.append(0 if any(doomed_flags) else 1)
        if doomed_for_all:
            self.sink = index
            self.rows.append([index] * self.width)
        else:
            self.rows.append(None)
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
        rows = self.rows
        frontier = [first]
        while frontier:
            index = frontier.pop()
            if rows[index] is not None:
                continue  # the sink self-loops from its creation
            source = self.decode[index]
            row = []
            for code in range(self.width):
                successor = self._successor(source, code)
                known = self.index.get(successor)
                if known is None:
                    known = self._add_state(successor)
                    frontier.append(known)
                row.append(known)
            rows[index] = row
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


class _GroupTable:
    """The numpy mirror of one product group: flat table plus flag columns.

    Rebuilt lazily whenever the group has grown (``ensure_state`` during a
    state carry materializes fresh states);
    existing state indices never change, so a rebuild only *extends* the
    meaning of a column -- and may widen the dtype, which
    :meth:`VectorKernel.grow_columns` propagates to the columns.
    """

    __slots__ = (
        "n_states",
        "table",
        "accepting",
        "doomed_next",
        "live",
        "sink_index",
        "scalar_rows",
    )

    def __init__(self) -> None:
        self.n_states = -1
        self.table = None
        #: ``(specs, states)`` 0/1 acceptance flags: row ``j`` is spec ``j``'s.
        self.accepting = None
        #: Per ``(state, code)`` offset of the raveled ``table``, whether the
        #: successor is doomed for some spec -- the enforcement gate's
        #: refusal flag, read at the offset the successor is gathered from.
        self.doomed_next = None
        #: ``(states, specs)`` 0/1 flags, 1 where the spec is *not* doomed;
        #: ``fatal_histories`` sums one row per history per round.
        self.live = None
        self.sink_index = -1
        #: ``table.tolist()`` built on first use by the skew fallback.
        self.scalar_rows: Optional[List[List[int]]] = None

    def sync(self, group: _ProductGroup) -> "_GroupTable":
        n = len(group.decode)
        if n == self.n_states:
            return self
        self.table = np.array(group.rows, dtype=_dtype_for(n)).reshape(n, group.width)
        # The joins copy: the group bytearrays keep growing in place.
        self.accepting = np.frombuffer(b"".join(group.accepting), dtype=np.uint8).reshape(-1, n)
        alive = np.frombuffer(bytes(group.alive), dtype=np.uint8)
        self.doomed_next = (alive[self.table] == 0).ravel()
        doomed = np.frombuffer(b"".join(group.spec_doomed), dtype=np.uint8).reshape(-1, n)
        self.live = np.ascontiguousarray(doomed.T ^ 1)
        self.sink_index = group.sink
        self.n_states = n
        self.scalar_rows = None
        return self


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class VectorKernel:
    """Every registered spec fused into greedily packed product groups.

    Most spec sets fit one group, so a batch is one peel plan replayed over
    one state column; a spec whose addition would blow the product cap
    starts a new group.  Columns are ndarrays of dense product-state
    indices, one per group, in the group table's dtype.
    """

    __slots__ = ("names", "width", "groups", "locate", "obs", "_tables")

    def __init__(
        self,
        specs: Sequence[Tuple[str, CompiledSpec]],
        width: int,
        cap: int = PRODUCT_STATE_CAP,
    ) -> None:
        self.names: Tuple[str, ...] = tuple(name for name, _spec in specs)
        self.width = width
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
        self._tables = [_GroupTable() for _group in self.groups]

    def _table(self, group_index: int) -> _GroupTable:
        return self._tables[group_index].sync(self.groups[group_index])

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def new_columns(self, n_objects: int = 0) -> List:
        """One dense state column per group, every object at the group root."""
        return [
            np.full(n_objects, group.root, dtype=self._table(gi).table.dtype)
            for gi, group in enumerate(self.groups)
        ]

    def grow_columns(self, columns: List, n_objects: int) -> None:
        """Extend each column so freshly interned objects start at the root,
        widening it first when its group table has outgrown its dtype."""
        for gi, group in enumerate(self.groups):
            table = self._table(gi).table
            column = columns[gi]
            if column.dtype != table.dtype:
                column = columns[gi] = column.astype(table.dtype)
            missing = n_objects - len(column)
            if missing > 0:
                columns[gi] = np.concatenate(
                    [column, np.full(missing, group.root, dtype=column.dtype)]
                )

    def advance_all(self, columns: List, batch: EncodedBatch) -> int:
        """Advance every spec over one encoded batch; returns the event count.

        The batch's peel plan is replayed once per group.  A group whose
        whole population has collapsed onto its doomed sink (and which the
        batch introduces no new objects to) skips its pass entirely -- the
        doomed-population early exit.
        """
        count = len(batch)
        if not count:
            return 0
        obs = self.obs
        if obs is not None:
            obs.batches_total.inc()
            obs.events_total.inc(count)
        ids = _id_array(batch)
        if batch._max_id is None:
            batch._max_id = int(ids.max())
        max_id = batch.max_id
        active: List[int] = []
        for gi in range(len(self.groups)):
            tab = self._table(gi)
            column = columns[gi]
            if column.dtype != tab.table.dtype:
                column = columns[gi] = column.astype(tab.table.dtype)
            sink = tab.sink_index
            if sink >= 0 and max_id < len(column) and _all_on_sink(column, ids, sink):
                if obs is not None:
                    obs.sink_skips.inc()
                continue  # whole population doomed for every spec of the group
            active.append(gi)
        if not active:
            return count
        plan = _counted_plan(obs, batch, ids, max_id, len(active))
        width = self.width
        for gi in active:
            flat = self._tables[gi].table.ravel()
            column = columns[gi]
            for vectorized, objects, symbol_codes, _positions in plan:
                if vectorized:
                    column[objects] = flat[_flat_index(column[objects], width, symbol_codes)]
                else:
                    self._advance_scalar(gi, column, objects, symbol_codes)
        return count

    def _advance_scalar(self, group_index: int, column, objects, symbol_codes) -> None:
        """The skew fallback: advance a (small) event tail object-by-object."""
        tab = self._tables[group_index]
        if tab.scalar_rows is None:
            tab.scalar_rows = tab.table.tolist()
        rows = tab.scalar_rows
        for o, c in zip(objects.tolist(), symbol_codes.tolist()):
            column[o] = rows[column[o]][c]

    def verdicts_of(self, name: str, column_set: List, seen: Iterable[int]) -> Dict[int, bool]:
        """Dense-id verdicts for one spec over the tracked population."""
        group_index, j = self.locate[name]
        tab = self._table(group_index)
        column = column_set[group_index]
        accepting = tab.accepting[j]
        if isinstance(seen, range) and seen.start == 0 and seen.step == 1:
            flags = accepting[column[: len(seen)]]
            return dict(enumerate(map(bool, flags.tolist())))
        dense = np.fromiter(seen, dtype=np.intp)
        flags = accepting[column[dense]]
        return dict(zip(dense.tolist(), map(bool, flags.tolist())))

    def state_of(self, columns: List, group_index: int, dense: int) -> int:
        """The dense product-state index of one object in one group; objects
        outside the column (never fed) rest at the group root."""
        column = columns[group_index]
        if 0 <= dense < len(column):
            return int(column[dense])
        return self.groups[group_index].root

    # ------------------------------------------------------------------ #
    # Preventive enforcement
    # ------------------------------------------------------------------ #
    def admissible_code(
        self, columns: List, dense: int, code: int, only: Optional[str] = None
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
            group = self.groups[group_index]
            successor = group.rows[self.state_of(columns, group_index, dense)][code]
            return not group.spec_doomed[j][successor]
        for group_index, group in enumerate(self.groups):
            successor = group.rows[self.state_of(columns, group_index, dense)][code]
            if not group.alive[successor]:
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
                successor = group.rows[state][code]
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

    def advance_all_enforced(self, columns: List, batch: EncodedBatch) -> Tuple[List, Rejections]:
        """Screen-and-advance one batch on *copies* of ``columns``.

        The transactional half of ``feed_events(..., enforce=True)``: the
        caller's columns are never touched, so a ``reject_batch`` policy can
        discard the copies wholesale.  An event whose successor state is
        doomed for any spec is *not* applied and is recorded with its
        position, dense id, code and per-group pre-event state indices;
        later events of the same object screen against the state *without*
        the rejected event -- exactly the ``reject_event`` skip-and-continue
        semantics.  Returns ``(new columns, position-sorted rejections)``.

        The screen is fused into the peel plan: each round computes the
        successors' flat offsets once, reads the refusal flags at those
        offsets (``doomed_next``), resets the refused few's successors to
        their current states and scatters once -- a round costs one flag
        gather and one ``flatnonzero`` per group over the plain feed, plus
        O(#rejections).  Kernel counters move as for :meth:`advance_all`,
        every screened event counted.
        """
        obs = self.obs
        if obs is not None and len(batch):
            obs.batches_total.inc()
            obs.events_total.inc(len(batch))
        n_groups = len(self.groups)
        tabs = []
        copies: List = []
        for gi in range(n_groups):
            tab = self._table(gi)
            column = columns[gi]
            if column.dtype != tab.table.dtype:
                column = column.astype(tab.table.dtype)
            else:
                column = column.copy()
            tabs.append(tab)
            copies.append(column)
        # Refused events, one array per round: positions, then the per-group
        # pre-event states (objects and codes are read off the batch at the end).
        refused: List[List] = [[] for _ in range(1 + n_groups)]
        if len(batch) and n_groups:
            self._screen(tabs, copies, batch, refused)
        if not refused[0]:
            empty = np.empty(0, dtype=np.int64)
            return copies, Rejections(empty, empty, empty, [empty] * n_groups)
        positions = np.concatenate(refused[0])
        order = np.argsort(positions)
        positions = positions[order]
        states = [np.concatenate(column)[order] for column in refused[1:]]
        objects = _id_array(batch)[positions]
        codes = _code_array(batch)[positions]
        return copies, Rejections(positions, objects, codes, states)

    def admitted(self, batch: EncodedBatch, rejected: Rejections) -> EncodedBatch:
        """The events of ``batch`` the screen admitted, in batch order: one
        boolean mask over the array columns, kept as ``array('q')``."""
        keep = np.ones(len(batch), dtype=bool)
        keep[rejected.positions] = False
        return EncodedBatch(
            _q_column(_id_array(batch)[keep]),
            _q_column(_code_array(batch)[keep]),
            batch.objects,
            batch.alphabet,
            max_code=batch.max_code,
        )

    def _screen(self, tabs, copies: List, batch: EncodedBatch, refused: List[List]) -> None:
        """Run the peel plan over ``copies``, appending refusals to ``refused``."""
        ids = _id_array(batch)
        if batch._max_id is None:
            batch._max_id = int(ids.max())
        plan = _counted_plan(self.obs, batch, ids, batch.max_id, len(tabs))
        group_range = range(len(tabs))
        width = self.width
        flats = [tab.table.ravel() for tab in tabs]
        for vectorized, objects, symbol_codes, positions in plan:
            if vectorized:
                states = [copies[gi][objects] for gi in group_range]
                successors = []
                doomed = None
                for gi in group_range:
                    index = _flat_index(states[gi], width, symbol_codes)
                    successors.append(flats[gi][index])
                    flags = tabs[gi].doomed_next[index]
                    doomed = flags if doomed is None else doomed | flags
                bad = np.flatnonzero(doomed)
                if bad.size:
                    # A refused event leaves its object where it was: patch
                    # the successors before the one scatter per group.
                    refused[0].append(positions[bad])
                    for gi in group_range:
                        pre = states[gi][bad]
                        successors[gi][bad] = pre
                        refused[1 + gi].append(pre)
                for gi in group_range:
                    copies[gi][objects] = successors[gi]
            else:
                # Skew fallback tail: events may repeat objects, so screen
                # one event at a time across all groups.
                rows = []
                alive = []
                for gi in group_range:
                    tab = tabs[gi]
                    if tab.scalar_rows is None:
                        tab.scalar_rows = tab.table.tolist()
                    rows.append(tab.scalar_rows)
                    alive.append(self.groups[gi].alive)
                tail: List[List[int]] = [[] for _ in refused]
                for p, o, c in zip(positions.tolist(), objects.tolist(), symbol_codes.tolist()):
                    current = [int(copies[gi][o]) for gi in group_range]
                    successor = [rows[gi][current[gi]][c] for gi in group_range]
                    if all(alive[gi][successor[gi]] for gi in group_range):
                        for gi in group_range:
                            copies[gi][o] = successor[gi]
                    else:
                        for column, value in zip(tail, (p, *current)):
                            column.append(value)
                for column, values in zip(refused, tail):
                    column.append(np.asarray(values, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # State carry: kernel rebuilds and snapshot restores
    # ------------------------------------------------------------------ #
    def carry_columns(
        self, sources: Sequence[Tuple], resets: Sequence[str] = (), counter=None
    ) -> List:
        """This kernel's state columns for the objects ``sources`` hold.

        A source is ``(names, states, column)``: ``states[i]`` is source state
        ``i`` as per-spec DFA components in ``names`` order, ``column[o]`` is
        object ``o``'s source state; the columns are equally long and the
        sources name each spec of this kernel once.  Specs in ``resets``
        restart at their initial state, the rest keep their components
        (compilation is deterministic).  Only numpy touches objects: one
        ``bincount`` over the first column, one ``np.unique`` folding each
        further one into a signature key, one gather per result column; so
        ``ensure_state`` runs once per distinct signature, ascending, and a
        listed state no object occupies is never touched.  ``counter``, when
        given, counts the distinct states the result columns hold, summed
        over the groups.
        """
        key = occupied = None
        picks: List = []  # per source, its state at each key value
        for _names, states, column in sources:
            n = len(states)
            column = column.astype(np.intp, copy=False)  # intp gathers ~3x faster
            if key is None:
                # The first column is its own key; bincount finds its values.
                key, picks = column, [np.arange(n)]
                occupied = np.flatnonzero(np.bincount(column, minlength=n))
            else:
                occupied, key = np.unique(key * n + column, return_inverse=True)
                picks = [pick[occupied // n] for pick in picks] + [occupied % n]
                occupied = np.arange(len(occupied))
        components: Dict[str, List[int]] = {}
        for (names, states, _column), pick in zip(sources, picks):
            rows = [states[i] for i in pick[occupied].tolist()]
            for j, name in enumerate(names):
                components[name] = [row[j] for row in rows]
        lookups = []
        for group in self.groups:
            parts = [
                [spec.initial] * len(occupied) if name in resets else components[name]
                for name, spec in zip(group.names, group.specs)
            ]
            lookups.append([group.ensure_state(state) for state in zip(*parts)])
        if counter is not None:
            counter.inc(sum(len(set(lookup)) for lookup in lookups))
        columns = []
        for gi, lookup in enumerate(lookups):
            # Indexed by key value; synced after every ensure_state, as a
            # fresh state may widen the dtype.
            table = np.zeros(len(picks[0]), dtype=self._table(gi).table.dtype)
            table[occupied] = lookup
            columns.append(table[key])
        return columns

    # ------------------------------------------------------------------ #
    # Snapshot payloads
    # ------------------------------------------------------------------ #
    def snapshot_groups(self, columns: List) -> List[Dict]:
        """Per-group wire payloads for :mod:`repro.engine.snapshot`, written
        as the kernel holds them.

        ``states`` is the group's whole ``decode`` list (state ``i`` as its
        per-spec component tuple) and ``column`` the live state column, packed
        uncompressed by :func:`pack_index_array`: a checkpoint pays one
        narrowing copy per column, not a re-encoding of the population.
        :meth:`restore_columns` reads them back.
        """
        return [
            {"names": group.names, "states": group.decode, "column": pack_index_array(column)}
            for group, column in zip(self.groups, columns)
        ]

    def restore_columns(
        self, payloads: Sequence[Dict], resets: Sequence[str], n_objects: int, counter=None
    ) -> List:
        """The state columns of :meth:`snapshot_groups` payloads, carried in.

        The payloads come off the wire and may group the specs differently.
        A payload may list any states, occupied or not, and its column may
        come zlib-compressed (as older builds wrote it, with only the
        occupied states listed) or raw.  Each is checked against the restore
        rules of :mod:`repro.engine.snapshot` before any state is
        materialized, and ``SnapshotError`` names the first group payload
        that breaks one.  ``counter`` passes on to :meth:`carry_columns`.
        """
        sources: List[Tuple] = []
        unnamed = Counter(self.names)
        for gi, payload in enumerate(payloads):
            names, states = tuple(payload["names"]), list(payload["states"])
            packed = _unpack_array(payload["column"], limit=COLUMN_WIRE_LIMIT)
            column = np.frombuffer(packed, dtype=packed.typecode)
            length = len(sources[0][2]) if sources else min(len(column), n_objects)
            fault = _payload_fault(self, unnamed, names, states, column, resets, length)
            if fault is not None:
                raise SnapshotError(f"corrupt stream snapshot: group payload {gi} {fault}")
            sources.append((names, states, column))
        missing = list(+unnamed)
        if missing:
            raise SnapshotError(f"corrupt stream snapshot: no group payload names {missing[0]!r}")
        return self.carry_columns(sources, resets, counter)

    # ------------------------------------------------------------------ #
    # Whole histories: batch checking and screening
    # ------------------------------------------------------------------ #
    def check_histories(self, codes, offsets) -> Dict[str, List[bool]]:
        """Per-spec verdicts for whole histories, in input order.

        History ``i`` is ``codes[offsets[i]:offsets[i + 1]]``, the checked
        layout of :class:`repro.engine.batch.ColumnarHistorySet` (int64
        ndarrays and ``array('q')`` columns are read in place).  Verdicts
        drain from the 0/1 acceptance flags as a ``bool`` view, so ``tolist``
        builds the Python bools directly.
        """
        verdicts: Dict[str, List[bool]] = {name: [] for name in self.names}
        for group, tab, final, _lived in self._run_histories(codes, offsets, self.obs, False):
            flags = tab.accepting.take(final, axis=1).view(np.bool_)
            verdicts.update(zip(group.names, flags.tolist()))
        return verdicts

    def check_history_set(self, history_set: ColumnarHistorySet) -> Dict[str, List[bool]]:
        """Per-spec verdicts for a whole encoded history set, read straight
        off its array columns."""
        return self.check_histories(_history_code_array(history_set), history_set.offsets)

    def fatal_histories(self, codes, offsets) -> Dict[str, List[Optional[int]]]:
        """Per-spec first-fatal indices for the histories of :meth:`check_histories`.

        The whole-history analogue of :func:`repro.engine.diagnostics.
        replay` and the primitive behind ``engine.screen_histories``: the
        index of the first event after which acceptance became impossible,
        ``None`` when the history stays salvageable, ``-1`` when the spec
        is doomed at its root (an empty language).  Doom is absorbing, so
        the index is the number of rounds that left the spec non-doomed.
        Kernel counters move as for a check of the same histories.
        """
        fatal: Dict[str, List[Optional[int]]] = {name: [] for name in self.names}
        lengths = np.diff(np.asarray(offsets, dtype=np.int64))
        for group, tab, _final, lived in self._run_histories(codes, offsets, self.obs, True):
            indices = lived.T.astype(object)
            indices[lived.T >= lengths] = None
            indices[tab.live[group.root] == 0] = -1
            fatal.update(zip(group.names, indices.tolist()))
        return fatal

    def _run_histories(self, codes, offsets, obs, count_live: bool):
        """The one round loop of whole histories: yields per group ``(group,
        table, final states, live rounds)``, in input order.

        Histories go longest first by one stable argsort of ``max_length -
        length`` in the narrowest dtype that holds it (numpy radix-sorts
        keys of 16 bits or fewer), so round ``r`` advances the prefix of
        histories longer than ``r`` with one flat gather.  With
        ``count_live`` each round adds the new states' live-flag rows into
        a ``(histories, specs)`` count in that dtype; otherwise it is
        ``None``.  ``obs`` counts the histories and gather rounds.
        """
        codes = np.asarray(codes, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        n = len(lengths)
        if obs is not None:
            obs.histories_total.inc(n)
        if n == 0:
            return
        max_length = int(lengths.max())
        if obs is not None:
            obs.gather_rounds.inc(max_length * len(self.groups))
        narrow = _dtype_for(max_length + 1)
        order = np.argsort((max_length - lengths).astype(narrow), kind="stable")
        starts = offsets[order]
        active = (n - np.cumsum(np.bincount(lengths)))[:max_length].tolist()
        inverse = np.empty_like(order)
        inverse[order] = np.arange(n)
        width = self.width
        for gi, group in enumerate(self.groups):
            tab = self._table(gi)
            flat = tab.table.ravel()
            states = np.full(n, group.root, dtype=flat.dtype)
            lived = np.zeros((n, len(group.names)), dtype=narrow) if count_live else None
            for r, a in enumerate(active):
                head = states[:a] = flat[_flat_index(states[:a], width, codes[starts[:a] + r])]
                if lived is not None:
                    lived[:a] += tab.live.take(head, axis=0)
            yield group, tab, states[inverse], None if lived is None else lived.take(inverse, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(len(group)) for group in self.groups)
        return f"VectorKernel({len(self.names)} specs, states {sizes})"


def _all_on_sink(column, ids, sink: int) -> bool:
    """Whether every object of ``column`` sits on the doomed ``sink`` state.

    The doomed-population early exit asks this of every group on every
    batch, so a live object among the batch's own ``ids`` settles it first:
    the batch's first object, then the whole batch when it is smaller than
    the population.  The population itself is scanned only when all of
    those are doomed, so a batch never pays for a sparse identity universe
    while it carries a live object, nor a large batch for its own length.
    """
    if column[ids[0]] != sink:
        return False
    if len(ids) < len(column) and not (column[ids] == sink).all():
        return False
    return bool((column == sink).all())


def _payload_fault(kernel, unnamed: Counter, names, states, column, resets, length: int):
    """The first restore rule a snapshot group payload breaks (``None`` when
    it keeps them all); counts the payload's spec names off ``unnamed``."""
    for name in names:
        if not unnamed[name]:
            return f"names spec {name!r}, which the stream does not check or another payload names"
        unnamed[name] -= 1
    width = len(names)
    if any(map(width.__ne__, map(len, states))):  # one C pass, however many states
        return f"lists a state that is not {width} components wide"
    for name, components in zip(names, zip(*states)):
        group_index, k = kernel.locate[name]
        bound = len(kernel.groups[group_index].specs[k].accepting)
        if name not in resets and not 0 <= min(components) <= max(components) < bound:
            return f"lists a {name!r} component outside the {bound} states of its table"
    if column.dtype.kind not in "iu" or (
        column.size and not 0 <= column.min() <= column.max() < len(states)
    ):
        return f"has a column entry that is not an index in [0, {len(states)})"
    if len(column) != length:
        return f"has {len(column)} column entries, not {length}: columns match and fit the interner"
    return None


def _batch_plan(batch: EncodedBatch, ids, max_id: int) -> List[Tuple]:
    """The batch's peel plan: ``(vectorized, objects, codes, positions)`` entries.

    Each vectorized entry holds the first pending occurrence of every object
    still carrying events within one :data:`PEEL_CHUNK` chunk -- applying
    entries in order preserves each object's event order while every entry
    itself is one flat gather.  A non-vectorized entry carries the tail of a
    pathologically skewed chunk (one object owning more than
    :data:`PEEL_DEPTH_LIMIT` events) for the scalar fallback; its events
    sort after every peeled entry for their objects, so order is preserved
    there too.  ``positions`` holds each entry's absolute batch positions
    (``intp``), which the enforcement gate reports rejections by; the plain
    feed never touches them.

    The first-occurrence scratch has at most :data:`PEEL_SLOTS` slots, so a
    plan costs what its batch holds, never the identity universe.  Ids below
    :data:`PEEL_SLOTS` index it directly; a batch with a larger id indexes
    it by ``id & (PEEL_SLOTS - 1)``.  Objects sharing a slot then share one
    peel per round: the slot's earliest pending event goes, the others wait.
    A shared slot can only delay an event to a later round, never reorder
    one object's events, because an object always lands in the same slot and
    its earliest pending event is the earliest of its own that the slot holds.

    The plan depends only on the batch's immutable id/code columns, so it is
    cached on the batch -- together with its observability aggregates
    ``(vectorized rounds, scalar-fallback events)``, so instrumented feeds
    never re-walk the plan to count -- and replayed by every group of every
    stream the batch is fed to.
    """
    cached = batch._np_plan
    if cached is not None and cached[0] == PEEL_CHUNK:
        return cached[1]
    codes = _code_array(batch)
    pos = np.empty(min(max_id + 1, PEEL_SLOTS), dtype=np.intp)
    fold = max_id >= PEEL_SLOTS
    plan: List[Tuple] = []
    rounds = 0
    scalar_events = 0
    for start in range(0, len(ids), PEEL_CHUNK):
        cur_ids = ids[start : start + PEEL_CHUNK]
        cur_codes = codes[start : start + PEEL_CHUNK]
        idx = np.arange(len(cur_ids), dtype=np.intp)
        depth = 0
        while idx.size:
            if depth >= PEEL_DEPTH_LIMIT:
                plan.append((False, cur_ids, cur_codes, start + idx))
                scalar_events += len(cur_ids)
                break
            slots = cur_ids & (PEEL_SLOTS - 1) if fold else cur_ids
            pos[slots[::-1]] = idx[::-1]  # last write wins = first occurrence
            first = pos[slots] == idx
            objects = cur_ids[first]
            plan.append((True, objects, cur_codes[first], start + idx[first]))
            rounds += 1
            if objects.size == idx.size:
                break
            keep = ~first
            idx = idx[keep]
            cur_ids = cur_ids[keep]
            cur_codes = cur_codes[keep]
            depth += 1
    batch._np_plan = (PEEL_CHUNK, plan, (rounds, scalar_events))
    return plan


def _counted_plan(obs, batch: EncodedBatch, ids, max_id: int, passes: int) -> List[Tuple]:
    """:func:`_batch_plan`, counted on the kernel instruments ``obs`` (when
    not ``None``) for ``passes`` group passes over it."""
    if obs is None:
        return _batch_plan(batch, ids, max_id)
    if batch._np_plan is not None and batch._np_plan[0] == PEEL_CHUNK:
        obs.plan_cache_hits.inc()
    else:
        obs.plan_cache_misses.inc()
    plan = _batch_plan(batch, ids, max_id)
    # The aggregates were computed once when the plan was built.
    gathers, scalar = batch._np_plan[2]
    obs.gather_rounds.inc(gathers * passes)
    if scalar:
        obs.scalar_fallback_events.inc(scalar * passes)
    return plan


__all__ = [
    "PEEL_CHUNK",
    "PEEL_DEPTH_LIMIT",
    "PEEL_SLOTS",
    "PRODUCT_STATE_CAP",
    "VectorKernel",
    "check_batch",
    "check_history_columns",
    "mark_present",
    "pack_index_array",
]
