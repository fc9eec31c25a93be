"""Unit tests for the columnar pipeline: interner, batches, kernel.

Also pins the two satellite fixes of the columnar PR: ``feed_events`` counts
events (and bumps ``events_seen``) with zero registered specs, and
``HistoryCursor.advance_many`` runs the hoisted sweep instead of re-entering
``advance`` per event.
"""

from array import array
from operator import itemgetter

import pytest

from repro.engine import (
    ColumnarHistorySet,
    EncodedBatch,
    HistoryCheckerEngine,
    HistoryCursor,
    ObjectInterner,
    compile_spec,
)
from repro.formal.alphabet import RoleSetAlphabet, canonical_symbol_key
from repro.workloads import banking, generators


class TestObjectInterner:
    def test_dense_int_ids_take_the_identity_fast_path(self):
        interner = ObjectInterner()
        assert interner.intern_column([0, 2, 1, 2, 0]) == [0, 2, 1, 2, 0]
        assert len(interner) == 3
        assert interner.intern_column([4, 3, 0]) == [4, 3, 0]
        assert len(interner) == 5
        assert [interner.object(code) for code in range(5)] == [0, 1, 2, 3, 4]

    def test_sparse_or_non_int_ids_fall_back_to_dict_interning(self):
        interner = ObjectInterner()
        assert interner.intern_column([0, 1]) == [0, 1]
        column = interner.intern_column(["acct-9", 1, "acct-9"])
        assert column == [2, 1, 2]
        assert interner.object(2) == "acct-9"
        assert interner.code_of("acct-9") == 2
        assert interner.code_of("unseen") == -1
        # Ids handed out before the fallback stay valid.
        assert interner.intern(0) == 0
        assert interner.code_of(1) == 1

    def test_single_intern_grows_the_dense_prefix(self):
        interner = ObjectInterner()
        assert [interner.intern(i) for i in (0, 1, 2, 1)] == [0, 1, 2, 1]
        assert len(interner) == 3
        # A gap stays in identity mode: the id is its own code and the
        # universe grows to cover it; the unfed ids 3..9 get codes too.
        assert interner.intern(10) == 10
        assert len(interner) == 11
        assert interner.object(10) == 10
        assert interner.code_of(5) == 5
        assert interner.to_snapshot() == ("dense", 11)


_KNOWN = banking.ROLE_INTEREST
_FRESH_A = frozenset({"a"})
_FRESH_B = frozenset({"b"})
_FRESH_AC = frozenset({"a", "c"})


class TestEncodedBatch:
    def test_encode_once_round_trips_through_the_alphabet(self):
        alphabet = RoleSetAlphabet()
        events = [(0, banking.ROLE_INTEREST), (1, banking.ROLE_REGULAR), (0, banking.ROLE_INTEREST)]
        batch = EncodedBatch.from_events(events, alphabet)
        assert len(batch) == 3
        assert batch.id_list == [0, 1, 0]
        assert batch.code_list[0] == batch.code_list[2] != batch.code_list[1]
        assert [alphabet.symbol(code) for code in batch.code_list] == [
            banking.ROLE_INTEREST,
            banking.ROLE_REGULAR,
            banking.ROLE_INTEREST,
        ]
        assert batch.ids.typecode == batch.codes.typecode == "q"
        assert batch.max_id == 1

    def test_code_column_may_arrive_as_an_array(self):
        alphabet = RoleSetAlphabet()
        codes = array("q", [alphabet.intern(banking.ROLE_INTEREST), alphabet.intern(frozenset())])
        batch = EncodedBatch(array("q", [3, 1]), codes, ObjectInterner(), alphabet)
        assert batch.codes is codes and batch.max_code == 1
        assert batch.code_list == [0, 1] and batch.id_list == [3, 1]
        listed = EncodedBatch([3, 1], [0, 1], ObjectInterner(), alphabet)
        assert listed.codes == codes and listed.codes.typecode == "q"

    def test_alphabet_is_append_only_across_batches(self):
        alphabet = RoleSetAlphabet()
        first = EncodedBatch.from_events([(0, banking.ROLE_INTEREST)], alphabet)
        version = alphabet.version
        second = EncodedBatch.from_events([(0, banking.ROLE_REGULAR)], alphabet)
        assert alphabet.version > version
        assert first.code_list[0] != second.code_list[0]
        assert alphabet.encode(banking.ROLE_INTEREST) == first.code_list[0]

    @pytest.mark.parametrize(
        "column",
        [
            [_FRESH_B, _KNOWN, _KNOWN],
            [_KNOWN, _FRESH_B, _KNOWN, _FRESH_B],
            [_KNOWN, _KNOWN, _FRESH_B],
            [_KNOWN, _FRESH_AC, _FRESH_A, _KNOWN, _FRESH_AC, _FRESH_B],
        ],
        ids=["fresh-first", "fresh-mid", "fresh-last", "fresh-out-of-order"],
    )
    def test_encode_column_takes_any_iterable_in_one_pass(self, column):
        events = list(enumerate(column))
        inputs = (
            lambda: column,
            lambda: (symbol for symbol in column),
            lambda: map(itemgetter(1), events),
        )
        results = []
        for make in inputs:
            alphabet = RoleSetAlphabet([_KNOWN])
            codes = alphabet.encode_column(make())
            assert [alphabet.symbol(code) for code in codes] == column
            results.append((codes, list(alphabet)))
        assert results[0] == results[1] == results[2]
        fresh = results[0][1][1:]
        assert fresh == sorted(fresh, key=canonical_symbol_key)
        assert len(fresh) == len(set(column) - {_KNOWN})

    def test_a_key_error_from_the_events_is_not_an_unseen_symbol(self):
        alphabet = RoleSetAlphabet([_KNOWN])
        with pytest.raises(KeyError) as raised:
            EncodedBatch.from_events([(0, _FRESH_A), {0: 1}], alphabet)
        assert raised.value.args == (1,)
        assert list(alphabet) == [_KNOWN]


class TestColumnarHistorySet:
    def test_offsets_cover_histories_exactly(self):
        alphabet = RoleSetAlphabet()
        histories, _events = generators.banking_event_stream(seed=5, objects=40, mean_length=5)
        history_set = ColumnarHistorySet.from_histories(histories, alphabet)
        assert len(history_set) == len(histories)
        offsets = history_set.offsets
        lengths = [stop - start for start, stop in zip(offsets, offsets[1:])]
        assert lengths == [len(history) for history in histories]
        start, stop = history_set.offsets[3], history_set.offsets[4]
        assert [alphabet.symbol(code) for code in history_set.code_list[start:stop]] == list(
            histories[3]
        )

    def test_encoding_bounds_codes_by_the_alphabet_without_a_scan(self):
        alphabet = RoleSetAlphabet()
        alphabet.intern(banking.ROLE_INTEREST)
        alphabet.intern(frozenset({"UNUSED"}))  # a code no history carries
        histories = [[banking.ROLE_INTEREST] * 3, [], [banking.ROLE_INTEREST]]
        history_set = ColumnarHistorySet.from_histories(histories + [()], alphabet)
        assert history_set.max_code == len(alphabet) - 1 > max(history_set.code_list)
        assert list(history_set.offsets) == [0, 3, 3, 4, 4]
        assert history_set.offsets.typecode == history_set.codes.typecode == "q"
        assert list(history_set.codes) == history_set.code_list
        empty = ColumnarHistorySet.from_histories([], RoleSetAlphabet())
        assert len(empty) == 0 and list(empty.offsets) == [0] and empty.max_code == -1

    def test_an_unseen_symbol_in_the_last_history_is_interned(self):
        alphabet = RoleSetAlphabet([_KNOWN])
        histories = [(_KNOWN,), (), (_KNOWN, _FRESH_B)]
        history_set = ColumnarHistorySet.from_histories(histories, alphabet)
        assert history_set.code_list == [0, 0, 1] and alphabet.symbol(1) == _FRESH_B
        assert history_set.max_code == 1 and list(history_set.offsets) == [0, 1, 1, 3]


class TestFusedEngineSurface:
    def test_check_batch_all_selects_names(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
        histories, _events = generators.banking_event_stream(seed=11, objects=60, mean_length=5)
        everything = engine.check_batch_all(histories)
        assert set(everything) == {"checking", "no_downgrade"}
        only = engine.check_batch_all(histories, names=["checking"])
        assert set(only) == {"checking"}
        assert only["checking"] == everything["checking"]
        assert engine.check_batch_all(histories, names=[]) == {}

    def test_check_batch_all_unknown_name_raises(self):
        engine = HistoryCheckerEngine()
        with pytest.raises(KeyError):
            engine.check_batch_all([], names=["nope"])

    def test_two_engines_with_same_spec_names_never_share_kernels(self):
        # Kernels are cached per engine by spec name and generation; two
        # engines using the same *name* for different languages must not
        # collide.
        first = HistoryCheckerEngine()
        first.add_spec("spec", banking.checking_role_inventory())
        second = HistoryCheckerEngine()
        second.add_spec("spec", banking.no_downgrade_inventory())
        histories = [(banking.ROLE_INTEREST, banking.ROLE_REGULAR)] * 4  # IC then RC

        results = [engine.check_batch("spec", histories) for engine in (first, second)]
        assert results[0] == [True] * 4  # checking allows IC RC
        assert results[1] == [False] * 4  # no_downgrade forbids RC after IC

    def test_foreign_alphabet_history_sets_are_rejected(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        foreign = RoleSetAlphabet()
        history_set = ColumnarHistorySet.from_histories([(banking.ROLE_INTEREST,)], foreign)
        with pytest.raises(ValueError, match="alphabet"):
            engine.check_batch_all(history_set)

    def test_foreign_alphabet_batches_are_rejected(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        foreign = RoleSetAlphabet()
        batch = EncodedBatch.from_events([(0, banking.ROLE_INTEREST)], foreign)
        stream = engine.open_stream()
        with pytest.raises(ValueError, match="alphabet"):
            stream.feed_events(batch)

    def test_foreign_id_space_batches_are_rejected_once_the_stream_has_one(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        stream = engine.open_stream()
        stream.feed(7, banking.ROLE_INTEREST)
        batch = engine.encode_events([(0, banking.ROLE_INTEREST)])  # fresh interner
        with pytest.raises(ValueError, match="object-id space"):
            stream.feed_events(batch)


class TestSatelliteFixes:
    def test_feed_events_counts_events_with_zero_specs(self):
        engine = HistoryCheckerEngine()
        stream = engine.open_stream([])
        events = [(0, banking.ROLE_INTEREST), (1, banking.ROLE_REGULAR)]
        assert stream.feed_events(events) == 2
        assert stream.events_seen == 2
        assert stream.feed_events(iter(events)) == 2
        assert stream.events_seen == 4

    def test_feed_events_returns_the_batch_length_not_a_sweep_count(self):
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
        stream = engine.open_stream()
        events = [(0, banking.ROLE_INTEREST)] * 5
        assert stream.feed_events(events) == 5
        assert stream.events_seen == 5

    def test_advance_many_equals_per_event_advance(self):
        spec = compile_spec(banking.checking_role_inventory().automaton)
        words = [
            (banking.ROLE_INTEREST, banking.ROLE_REGULAR, banking.ROLE_INTEREST),
            (banking.ROLE_ACCOUNT, banking.ROLE_INTEREST),  # dooms at event one
            (),
            tuple(banking.ROLE_SETS) * 3,
        ]
        for word in words:
            bulk = HistoryCursor(spec).advance_many(word)
            single = HistoryCursor(spec)
            for symbol in word:
                single.advance(symbol)
            assert bulk.state == single.state
            assert bulk.accepted == single.accepted
            assert bulk.events_seen == single.events_seen == len(word)

    def test_advance_many_accepts_iterators(self):
        spec = compile_spec(banking.checking_role_inventory().automaton)
        cursor = HistoryCursor(spec).advance_many(iter([banking.ROLE_INTEREST] * 4))
        assert cursor.events_seen == 4
        assert cursor.accepted
