"""The numpy kernel: dtype edges, skew fallback, column packing.

The differential fuzz suite pins the kernel against ``DFA.accepts``, the
cursor paths and the salvageability oracle on random cases; this file
drives the corners those cases cannot reach deliberately -- state counts
sitting exactly on the uint8/uint16/uint32 dtype boundaries (hand-built
counter automata, since no random regex minimizes to exactly 256 states),
batches skewed enough to trip the scalar peel fallback, and the snapshot
column packing.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.engine import HistoryCheckerEngine
from repro.engine.compiler import CompiledSpec
from repro.engine.vector import (
    PEEL_CHUNK,
    PEEL_DEPTH_LIMIT,
    VectorKernel,
    _dtype_for,
    pack_index_array,
)
from repro.workloads import generators


def counter_spec(n_states: int, n_symbols: int = 2) -> CompiledSpec:
    """A modular counter: symbol 0 increments (mod ``n_states``), others hold.

    Exactly ``n_states`` live states, all reachable, accepting only at 0 --
    the smallest automaton family whose state count is freely choosable, so
    dtype boundaries can be hit exactly.  The remap is the identity over a
    shared alphabet of the same width.
    """
    table = array("i")
    for state in range(n_states):
        for code in range(n_symbols):
            table.append((state + 1) % n_states if code == 0 else state)
    accepting = bytearray(n_states + 1)
    accepting[0] = 1
    doomed = bytearray(n_states + 1)
    doomed[n_states] = 1  # only the synthetic dead state is doomed
    symbols = tuple(f"s{code}" for code in range(n_symbols))
    codes = {symbol: code for code, symbol in enumerate(symbols)}
    spec = CompiledSpec(codes, symbols, 0, table, accepting, doomed)
    spec.remap = array("i", range(n_symbols))
    return spec


def test_dtype_ladder_edges():
    assert _dtype_for(255) is np.uint8
    assert _dtype_for(256) is np.uint8
    assert _dtype_for(257) is np.uint16
    assert _dtype_for(65536) is np.uint16
    assert _dtype_for(65537) is np.uint32


@pytest.mark.parametrize("n_states", [1, 2, 255, 256, 257, 65535, 65536, 65537])
def test_dtype_boundary_counts_agree_with_the_spec(n_states):
    """Tables at every dtype edge produce exact verdicts (wraparound included)."""
    spec = counter_spec(n_states)
    kernel = VectorKernel([("count", spec)], width=2)
    table = kernel._table(0).table
    assert table.dtype == _dtype_for(len(kernel.groups[0].decode))
    # Histories probing the wrap boundary: n-1, n, and n+1 increments (the
    # last two alias under a too-narrow dtype), plus holds mixed in.
    lengths = [n_states - 1, n_states, n_states + 1, 3]
    code_list: list = []
    offsets = [0]
    histories = []
    for length in lengths:
        codes = [0] * length
        if length >= 3:
            codes[1] = 1  # one hold: only length-1 increments
        histories.append(codes)
        code_list.extend(codes)
        offsets.append(len(code_list))
    verdicts = kernel.check_histories(code_list, offsets)
    expected = []
    for codes in histories:
        state = 0
        for code in codes:
            state = spec.table[state * spec.n_symbols + code]
        expected.append(bool(spec.accepting[state]))
    assert verdicts["count"] == expected


def test_dtype_upcast_on_streamed_columns():
    """Columns follow the table dtype when translation widens a group."""
    spec = counter_spec(300)  # uint16 table
    kernel = VectorKernel([("count", spec)], width=2)
    columns = kernel.new_columns(4)
    assert columns[0].dtype == np.uint16


def _dfa_verdicts(dfa, events):
    """Per-object ``DFA.accepts`` over each object's events, in feed order."""
    histories = {}
    for object_id, symbol in events:
        histories.setdefault(object_id, []).append(symbol)
    return {object_id: dfa.accepts(history) for object_id, history in histories.items()}


def test_alphabet_growth_re_extends_remap_columns():
    """Symbols first seen mid-stream grow the shared alphabet; the kernel
    tables rebuild over the extended remap columns and the verdicts stay
    those of ``DFA.accepts``."""
    import random

    rng = random.Random(7)
    schema = generators.random_schema(classes=4, rng=rng)
    from repro.core.rolesets import RoleSet, enumerate_role_sets

    role_sets = list(enumerate_role_sets(schema))
    regex = generators.random_role_set_regex(schema, size=4, rng=rng)
    specs = {"spec": regex.to_nfa(role_sets)}
    histories = [
        next(generators.spec_walk_histories(specs["spec"], objects=1, mean_length=5, rng=rng))
        for _ in range(6)
    ]
    engine = HistoryCheckerEngine()
    engine.add_spec("spec", specs["spec"])
    stream = engine.open_stream()
    events_a = generators.event_stream(histories[:3], 11)
    stream.feed_events(events_a)
    width = len(engine.alphabet)
    # Aliens unseen at kernel-build time force alphabet growth, and with it
    # a kernel rebuild over the extended remap columns.
    aliens = (RoleSet({"ALIEN"}), RoleSet({"ALIEN", "X"}))
    alien_histories = [history + aliens for history in histories[3:]]
    events_b = generators.event_stream(alien_histories, 13)
    stream.feed_events(events_b)
    assert len(engine.alphabet) > width
    dfa = specs["spec"].determinize()
    assert stream.all_verdicts() == {"spec": _dfa_verdicts(dfa, events_a + events_b)}


def test_empty_and_single_object_columns():
    spec = counter_spec(5)
    kernel = VectorKernel([("count", spec)], width=2)
    assert kernel.check_histories([], [0]) == {"count": []}
    columns = kernel.new_columns(0)
    assert len(columns[0]) == 0
    assert kernel.verdicts_of("count", columns, range(0)) == {}
    # A single object wraps the counter exactly once.
    assert kernel.check_histories([0] * 5, [0, 5]) == {"count": [True]}
    kernel.grow_columns(columns, 1)
    assert columns[0].tolist() == [0]


def test_skewed_batch_takes_the_scalar_fallback():
    """One object flooding a chunk past PEEL_DEPTH_LIMIT falls back to the
    scalar tail -- and still matches ``DFA.accepts`` event for event."""
    n = 7
    nfa = _counter_nfa(n)
    engine = HistoryCheckerEngine()
    engine.add_spec("count", nfa)
    flood = [("hog", "s0")] * (PEEL_DEPTH_LIMIT * 3 + 2)
    trickle = [(f"o{i}", "s0") for i in range(5)]
    events = flood[: PEEL_DEPTH_LIMIT * 2] + trickle + flood[PEEL_DEPTH_LIMIT * 2 :]
    assert len(events) < PEEL_CHUNK  # a single chunk, so the skew cannot dilute
    expected = {"count": _dfa_verdicts(nfa.determinize(), events)}
    # 98 increments bring the hog's 7-counter back to its accepting state;
    # one increment takes each trickle object off it.
    assert expected["count"] == {"hog": True, **{f"o{i}": False for i in range(5)}}
    stream = engine.open_stream()
    batch = engine.encode_events(events)
    stream.feed_events(batch)
    # The plan cached on the batch must contain a scalar tail entry: the
    # flood exceeds the peel depth inside its chunk.
    assert batch._np_plan is not None
    assert any(not entry[0] for entry in batch._np_plan[1])
    assert stream.all_verdicts() == expected


def _counter_nfa(n_states: int):
    """An NFA whose minimized DFA is the ``n_states`` counter of ``counter_spec``."""
    from repro.formal.nfa import NFA

    transitions = {}
    for state in range(n_states):
        transitions[(state, "s0")] = {(state + 1) % n_states}
        transitions[(state, "s1")] = {state}
    return NFA(
        states=range(n_states),
        alphabet={"s0", "s1"},
        transitions=transitions,
        initial_states={0},
        accepting_states={0},
    )


def test_engine_takes_no_kernel_option():
    # There is one kernel, so the engine takes no kernel option at all.
    removed_option = {"kernel": "vector"}
    with pytest.raises(TypeError, match="kernel"):
        HistoryCheckerEngine(**removed_option)


def test_pack_index_array_matches_list_packing():
    from repro.engine.batch import _pack_column, _unpack_column

    for values in ([], [0], [3, 1, 2] * 50, list(range(300)), [70000, 2, 70000]):
        arr = np.asarray(values, dtype=np.int64)
        packed = pack_index_array(arr)
        assert _unpack_column(packed) == values
        assert packed[0] == _pack_column(values)[0]  # same narrowing ladder
        assert packed[1] == 0  # raw bytes: state columns are never compressed


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
