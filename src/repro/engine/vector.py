"""The vectorized fused kernel: numpy transition gathers over encoded columns.

:class:`VectorKernel` mirrors each :class:`repro.engine.batch._ProductGroup`
as a flat ndarray transition table of shape ``(states, symbols)`` in the
narrowest unsigned dtype that fits (the uint8/uint16/uint32 ladder), and
keeps the per-object state columns as ndarrays of dense state indices
instead of Python row references.  Advancing a batch then replaces the
per-event interpreter loop of :meth:`repro.engine.batch.FusedKernel.
advance_all` with a handful of whole-column gathers.

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

Contiguous whole-history checking (``check_histories``) vectorizes
differently: histories are sorted by length (descending, stable), and round
``r`` advances the still-active prefix with one gather -- the active count
per round comes from a single ``bincount``/``cumsum`` over the length
column, so the loop runs ``max_length`` rounds of pure array ops.

Everything interoperates with the fused kernel: state columns convert
through dense indices (``index_columns`` / ``_columns_from_indices``),
snapshots use the same packed wire format (so a vector snapshot restores on
a no-numpy host and vice versa), and shard payloads ship raw
buffer-protocol ndarray bytes tagged ``("nd", dtype-string, buffer)`` --
no zlib round trip, rebuilt worker-side with one ``np.frombuffer`` each.

The module imports without numpy (:data:`HAVE_NUMPY` is the gate the engine
reads for ``kernel="auto"``); only constructing a :class:`VectorKernel`
actually requires it.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.batch import (
    _PAYLOAD_ZLIB_LEVEL,
    COLUMN_WIRE_LIMIT,
    ColumnarHistorySet,
    EncodedBatch,
    FusedKernel,
    Rejections,
    _ProductGroup,
    _unpack_array,
)
from repro.engine.compiler import CompiledSpec

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    np = None
    HAVE_NUMPY = False

#: Events per peel chunk.  Large enough that per-round numpy overhead
#: amortizes, small enough that the peel working set stays cache-resident
#: and a chunk's round count tracks the *local* object multiplicity.
PEEL_CHUNK = 8192

#: Peel rounds per chunk before the remaining (skew-dominated) tail falls
#: back to the cached scalar loop: each extra round past this point would
#: advance only the handful of objects flooding the chunk.
PEEL_DEPTH_LIMIT = 32


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


def _offset_array(history_set: ColumnarHistorySet):
    """The offsets column as an int64 ndarray view (offsets never mutate)."""
    return np.frombuffer(history_set.offsets, dtype=np.int64)


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
# Raw (buffer-protocol) shard payloads
# --------------------------------------------------------------------------- #
def _pack_raw(values) -> Tuple[str, str, bytes]:
    """``("nd", dtype string, buffer bytes)`` -- narrowed, never compressed.

    The dtype string (``numpy.dtype.str``, endianness included) is the whole
    wire header; the worker rebuilds the column with one ``np.frombuffer``.
    """
    arr = np.ascontiguousarray(values)
    high = int(arr.max()) if arr.size else 0
    dtype = np.uint8 if high <= 0xFF else (np.uint16 if high <= 0xFFFF else np.int64)
    arr = arr.astype(dtype, copy=False)
    return ("nd", arr.dtype.str, arr.tobytes())


def _unpack_raw(packed: Tuple[str, str, bytes]):
    _tag, dtype, data = packed
    return np.frombuffer(data, dtype=np.dtype(dtype))


def shard_payload_raw(history_set: ColumnarHistorySet, start: int, stop: int) -> Tuple:
    """Histories ``[start, stop)`` as raw buffer-protocol column bytes.

    Same triple shape as :meth:`ColumnarHistorySet.shard_payload` -- ``(count,
    packed lengths, packed codes)`` -- but the packed columns are ``("nd",
    ...)`` tagged raw buffers, sliced straight off the set's ndarray views
    with no tolist/zlib round trip.
    """
    offsets = _offset_array(history_set)
    codes = _history_code_array(history_set)
    lo, hi = int(offsets[start]), int(offsets[stop])
    return (stop - start, _pack_raw(np.diff(offsets[start : stop + 1])), _pack_raw(codes[lo:hi]))


def unpack_shard_arrays(payload: Tuple):
    """``(lengths, flat codes)`` ndarrays from :func:`shard_payload_raw` output."""
    _count, lengths_packed, codes_packed = payload
    return _unpack_raw(lengths_packed), _unpack_raw(codes_packed)


def pack_index_array(values) -> Tuple[str, int, bytes]:
    """:func:`repro.engine.batch._pack_column` for an ndarray source.

    Emits the identical ``(typecode, zlib flag, bytes)`` wire form --
    snapshots written by either kernel kind restore under the other -- but
    narrows and serializes straight from the array buffer.
    """
    high = int(values.max()) if values.size else 0
    if high <= 0xFF:
        typecode, dtype = "B", np.uint8
    elif high <= 0xFFFF:
        typecode, dtype = "H", np.uint16
    else:
        typecode, dtype = "q", np.int64
    raw = np.ascontiguousarray(values.astype(dtype, copy=False)).tobytes()
    packed = zlib.compress(raw, _PAYLOAD_ZLIB_LEVEL)
    if len(packed) < len(raw):
        return typecode, 1, packed
    return typecode, 0, raw


# --------------------------------------------------------------------------- #
# Group tables
# --------------------------------------------------------------------------- #
def _single_spec_table(group: _ProductGroup, width: int):
    """The dense table of a one-spec group, built by pure array ops.

    Uses :meth:`CompiledSpec.dense_arrays` instead of walking the product
    rows: the spec table is augmented with the absorbing dead row and an
    unknown-symbol column, gathered per (occupied product state, shared
    code), and mapped back to product indices.  Returns ``None`` when any
    successor is unmapped (cannot happen for a closed group; defensive).
    """
    spec: CompiledSpec = group.specs[0]
    table, _accepting, _doomed, remap = spec.dense_arrays()
    n_spec = spec.n_states
    full = np.empty((n_spec + 1, spec.n_symbols + 1), dtype=np.int64)
    full[:n_spec, : spec.n_symbols] = table
    full[n_spec, :] = n_spec  # the synthetic dead state absorbs everything
    full[:, spec.n_symbols] = n_spec  # unknown shared symbols are fatal
    codes = np.full(width, spec.n_symbols, dtype=np.int64)
    known = min(width, len(remap))
    codes[:known] = np.where(remap[:known] < 0, spec.n_symbols, remap[:known])
    inverse = np.full(n_spec + 1, -1, dtype=np.int64)
    for signature, index in group.index.items():
        inverse[signature[0]] = index
    decode = np.fromiter(
        (signature[0] for signature in group.decode), dtype=np.int64, count=len(group.decode)
    )
    product = inverse[full[decode[:, None], codes[None, :]]]
    if product.min(initial=0) < 0:  # pragma: no cover - closure is complete
        return None
    return product


class _GroupTable:
    """The numpy mirror of one product group: flat table plus flag columns.

    Rebuilt lazily whenever the group has grown (``ensure_state`` during
    state translation or snapshot restore materializes fresh states);
    existing state indices never change, so a rebuild only *extends* the
    meaning of a column -- and may widen the dtype, which
    :meth:`VectorKernel.grow_columns` propagates to the columns.
    """

    __slots__ = (
        "n_states",
        "table",
        "accepting",
        "doomed_next",
        "doomed",
        "sink_index",
        "scalar_rows",
    )

    def __init__(self) -> None:
        self.n_states = -1
        self.table = None
        self.accepting: List = []
        #: Per ``(state, code)`` offset of the raveled ``table``, whether the
        #: successor is doomed for some spec -- the enforcement gate's
        #: refusal flag, read at the offset the successor is gathered from.
        self.doomed_next = None
        #: Per spec, the per-state doomed flags (drives ``fatal_histories``).
        self.doomed: List = []
        self.sink_index = -1
        #: ``table.tolist()`` built on first use by the skew fallback.
        self.scalar_rows: Optional[List[List[int]]] = None

    def sync(self, group: _ProductGroup) -> "_GroupTable":
        n = len(group.decode)
        if n == self.n_states:
            return self
        width = group.width
        table = _single_spec_table(group, width) if len(group.specs) == 1 else None
        if table is None:
            flat = [cell[-1] for row in group.rows for cell in row[:width]]
            table = np.array(flat, dtype=np.int64).reshape(n, width)
        self.table = table.astype(_dtype_for(n))
        # bytes() copies: the group bytearrays keep growing in place.
        self.accepting = [np.frombuffer(bytes(acc), dtype=np.uint8) for acc in group.accepting]
        alive = np.frombuffer(bytes(group.alive), dtype=np.uint8)
        self.doomed_next = (alive[self.table] == 0).ravel()
        self.doomed = [np.frombuffer(bytes(col), dtype=np.uint8) for col in group.spec_doomed]
        self.sink_index = group.sink[-1] if group.sink is not None else -1
        self.n_states = n
        self.scalar_rows = None
        return self


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class VectorKernel(FusedKernel):
    """A :class:`FusedKernel` whose columns and tables are flat ndarrays.

    Construction, spec grouping, product closure and the dense state
    numbering are inherited unchanged -- the two kernels agree on every
    state index by construction, which is what lets streams, snapshots and
    the differential fuzz suite move columns between them freely.
    """

    __slots__ = ("_tables",)

    kind = "vector"

    def __init__(
        self,
        specs: Sequence[Tuple[str, CompiledSpec]],
        width: int,
        cap: Optional[int] = None,
        key: Tuple = (),
    ) -> None:
        if not HAVE_NUMPY:  # pragma: no cover - exercised on the no-numpy CI leg
            raise RuntimeError(
                "VectorKernel needs numpy; install the repro[fast] extra or use the "
                "fused kernel (HistoryCheckerEngine(kernel='auto'))"
            )
        if cap is None:
            from repro.engine.batch import PRODUCT_STATE_CAP

            cap = PRODUCT_STATE_CAP
        super().__init__(specs, width, cap, key=key)
        self._tables = [_GroupTable() for _group in self.groups]

    def _table(self, group_index: int) -> _GroupTable:
        return self._tables[group_index].sync(self.groups[group_index])

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def new_columns(self, n_objects: int = 0) -> List:
        return [
            np.full(n_objects, group.root[-1], dtype=self._table(gi).table.dtype)
            for gi, group in enumerate(self.groups)
        ]

    def grow_columns(self, columns: List, n_objects: int) -> None:
        for gi, group in enumerate(self.groups):
            table = self._table(gi).table
            column = columns[gi]
            if column.dtype != table.dtype:
                column = columns[gi] = column.astype(table.dtype)
            missing = n_objects - len(column)
            if missing > 0:
                columns[gi] = np.concatenate(
                    [column, np.full(missing, group.root[-1], dtype=column.dtype)]
                )

    def advance_all(self, columns: List, batch: EncodedBatch) -> int:
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
            if (
                tab.sink_index >= 0
                and max_id < len(column)
                and bool((column == tab.sink_index).all())
            ):
                if obs is not None:
                    obs.sink_skips.inc()
                continue  # whole population doomed for every spec of the group
            active.append(gi)
        if not active:
            return count
        if obs is not None:
            if batch._np_plan is not None and batch._np_plan[0] == PEEL_CHUNK:
                obs.plan_cache_hits.inc()
            else:
                obs.plan_cache_misses.inc()
        plan = _batch_plan(batch, ids, max_id)
        width = self.width
        for gi in active:
            flat = self._tables[gi].table.ravel()
            column = columns[gi]
            for vectorized, objects, symbol_codes, _positions in plan:
                if vectorized:
                    column[objects] = flat[_flat_index(column[objects], width, symbol_codes)]
                else:
                    self._advance_scalar(gi, column, objects, symbol_codes)
        if obs is not None:
            # The aggregates were computed once when the plan was built.
            gathers, scalar = batch._np_plan[2]
            obs.gather_rounds.inc(gathers * len(active))
            if scalar:
                obs.scalar_fallback_events.inc(scalar * len(active))
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
        column = columns[group_index]
        if 0 <= dense < len(column):
            return int(column[dense])
        return self.groups[group_index].root[-1]

    # ------------------------------------------------------------------ #
    # Preventive enforcement
    # ------------------------------------------------------------------ #
    def _successor_index(self, group_index: int, state: int, code: int) -> int:
        return int(self._table(group_index).table[state, code])

    def component_states(self, columns: List, name: str) -> List[int]:
        group_index, j = self.locate[name]
        group = self.groups[group_index]
        decode = np.fromiter(
            (signature[j] for signature in group.decode),
            dtype=np.int64,
            count=len(group.decode),
        )
        return decode[columns[group_index]].tolist()

    def advance_all_enforced(self, columns: List, batch: EncodedBatch) -> Tuple[List, Rejections]:
        """The vectorized transactional screen-and-advance.

        Same contract as :meth:`FusedKernel.advance_all_enforced` (copies,
        skip-and-continue semantics, position-sorted :class:`Rejections`),
        fused into the peel plan: each round computes the successors' flat
        offsets once, reads the refusal flags at those offsets
        (``doomed_next``), resets the refused few's successors to their
        current states and scatters once -- a round costs one flag gather
        and one ``flatnonzero`` per group over the plain feed, plus
        O(#rejections).  The refusals stay ndarray columns, sorted once at
        the end.
        """
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
            return copies, Rejections([], [], [], [[] for _ in range(n_groups)])
        positions = np.concatenate(refused[0])
        order = np.argsort(positions)
        positions = positions[order]
        states = [np.concatenate(column)[order] for column in refused[1:]]
        objects = _id_array(batch)[positions]
        codes = _code_array(batch)[positions]
        return copies, Rejections(positions, objects, codes, states)

    def _screen(self, tabs, copies: List, batch: EncodedBatch, refused: List[List]) -> None:
        """Run the peel plan over ``copies``, appending refusals to ``refused``."""
        ids = _id_array(batch)
        if batch._max_id is None:
            batch._max_id = int(ids.max())
        plan = _batch_plan(batch, ids, batch.max_id)
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

    def fatal_histories(self, code_list, lengths) -> Dict[str, List[Optional[int]]]:
        codes = np.asarray(code_list, dtype=np.int64)
        lens = np.asarray(lengths, dtype=np.int64)
        n = len(lens)
        if n == 0:
            return {name: [] for name in self.names}
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        order = np.argsort(-lens, kind="stable")
        starts = offsets[:-1][order]
        max_length = int(lens[order[0]]) if n else 0
        counts = np.bincount(lens, minlength=max_length + 1)
        active = n - np.cumsum(counts)  # active[r] = #histories longer than r
        results: Dict[str, List[Optional[int]]] = {}
        for gi, group in enumerate(self.groups):
            tab = self._table(gi)
            table = tab.table
            root = group.root[-1]
            n_specs = len(group.specs)
            states = np.full(n, root, dtype=table.dtype)
            # -2 = still salvageable; -1 = empty language; r = fatal index.
            fatal = np.full((n, n_specs), -2, dtype=np.int64)
            for j in range(n_specs):
                if tab.doomed[j][root]:
                    fatal[:, j] = -1
            for r in range(max_length):
                a = int(active[r])
                if a == 0:  # pragma: no cover - max_length bounds the loop
                    break
                states[:a] = table[states[:a], codes[starts[:a] + r]]
                for j in range(n_specs):
                    newly = (fatal[:a, j] == -2) & (tab.doomed[j][states[:a]] != 0)
                    if newly.any():
                        fatal[: a, j][newly] = r
            unsorted = np.empty_like(fatal)
            unsorted[order] = fatal
            for j, name in enumerate(group.names):
                results[name] = [
                    None if value == -2 else value for value in unsorted[:, j].tolist()
                ]
        return results

    def index_columns(self, columns: List) -> List[List[int]]:
        return [column.tolist() for column in columns]

    def _columns_from_indices(self, index_columns: List[List[int]]) -> List:
        # Sync first: translation/restore may have just materialized states
        # the cached tables have not seen yet.
        return [
            np.asarray(indices, dtype=self._table(gi).table.dtype)
            for gi, indices in enumerate(index_columns)
        ]

    # ------------------------------------------------------------------ #
    # Snapshot payloads
    # ------------------------------------------------------------------ #
    def snapshot_groups(self, columns: List) -> List[Dict]:
        groups: List[Dict] = []
        for group, column in zip(self.groups, columns):
            # A bincount remap instead of np.unique's sort: occupied states
            # come out ascending all the same, in O(objects + states).
            occupied = np.flatnonzero(np.bincount(column))
            position = np.zeros(len(group.decode), dtype=_dtype_for(len(occupied)))
            position[occupied] = np.arange(len(occupied))
            groups.append(
                {
                    "names": group.names,
                    "states": [group.decode[index] for index in occupied.tolist()],
                    "column": pack_index_array(position[column]),
                }
            )
        return groups

    def restore_group_columns(
        self, groups: Sequence[Dict], initials: Dict[str, int], resets: set
    ) -> Optional[List]:
        """:meth:`FusedKernel.restore_group_columns` as one ndarray gather per
        group, straight off the unpacked wire buffer -- no Python lists."""
        lookups = self._restore_lookups(groups, initials, resets)
        if lookups is None:
            return None
        columns = []
        for gi, (payload, lookup) in enumerate(zip(groups, lookups)):
            packed = _unpack_array(payload["column"], limit=COLUMN_WIRE_LIMIT)
            indices = np.frombuffer(packed, dtype=packed.typecode)
            columns.append(np.asarray(lookup, dtype=self._table(gi).table.dtype)[indices])
        return columns

    # ------------------------------------------------------------------ #
    # Batch checking
    # ------------------------------------------------------------------ #
    def check_histories(self, code_list, lengths) -> Dict[str, List[bool]]:
        codes = np.asarray(code_list, dtype=np.int64)
        lens = np.asarray(lengths, dtype=np.int64)
        n = len(lens)
        obs = self.obs
        if obs is not None:
            obs.histories_total.inc(n)
        if n == 0:
            return {name: [] for name in self.names}
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        order = np.argsort(-lens, kind="stable")
        starts = offsets[:-1][order]
        max_length = int(lens[order[0]])
        if obs is not None:
            obs.gather_rounds.inc(max_length * len(self.groups))
        counts = np.bincount(lens, minlength=max_length + 1)
        active = n - np.cumsum(counts)  # active[r] = #histories longer than r
        verdicts: Dict[str, List[bool]] = {}
        final = np.empty(n, dtype=np.int64)
        for gi, group in enumerate(self.groups):
            tab = self._table(gi)
            table = tab.table
            states = np.full(n, group.root[-1], dtype=table.dtype)
            for r in range(max_length):
                a = int(active[r])
                if a == 0:  # pragma: no cover - max_length bounds the loop
                    break
                states[:a] = table[states[:a], codes[starts[:a] + r]]
            final[order] = states
            for j, name in enumerate(group.names):
                accepting = tab.accepting[j]
                verdicts[name] = list(map(bool, accepting[final].tolist()))
        return verdicts

    def check_history_set(self, history_set: ColumnarHistorySet) -> Dict[str, List[bool]]:
        return self.check_histories(
            _history_code_array(history_set), np.diff(_offset_array(history_set))
        )

    def shard_payload(self, history_set: ColumnarHistorySet, start: int, stop: int) -> Tuple:
        return shard_payload_raw(history_set, start, stop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(len(group)) for group in self.groups)
        return f"VectorKernel({len(self.names)} specs, states {sizes})"


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
    pos = np.empty(max_id + 1, dtype=np.intp)
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
            pos[cur_ids[::-1]] = idx[::-1]  # last write wins = first occurrence
            first = pos[cur_ids] == idx
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


__all__ = [
    "HAVE_NUMPY",
    "PEEL_CHUNK",
    "PEEL_DEPTH_LIMIT",
    "VectorKernel",
    "mark_present",
    "pack_index_array",
    "shard_payload_raw",
    "unpack_shard_arrays",
]
