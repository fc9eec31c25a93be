"""Cross-layer differential fuzzing: every execution path must agree.

The engine answers "does this history satisfy this spec" along several
paths -- the product kernel (``check_batch`` / ``check_batch_all``), the
per-spec cursor paths (``HistoryCursor`` / ``CursorTable``), the streaming
session (``StreamChecker``) and a snapshot→restore round trip of it -- and
the one-shot subset-construction oracle (``DFA.accepts``) answers it
independently of all of them.  This suite drives every path with seeded
random specs (random schemas → random role-set regexes) over seeded random
streams (spec walks, uniform noise, alien symbols) and asserts
**bit-identical verdicts** on every object:

* 200 seeded cases per tier-1 run (``--fuzz-rounds`` multiplies the count;
  the nightly CI job runs 10x), each case covering the multi-spec batch,
  the per-spec batch, cursors, DFA oracle, streaming, mid-stream
  snapshot/restore into the same engine, restore into a *fresh* engine
  (the process-restart simulation, exercising fingerprint validation and
  alphabet re-encoding), and a mid-stream re-registration that translates
  the live state columns of every other spec through the new kernel;
* the ``enforce=True`` admissibility gate against an independent DFA-walk
  oracle with its own backward-reachability doomed set: the gate's
  rejected event indices must equal the oracle's fatal indices exactly, an
  enforced stream must never hold a doomed object, and ``reject_batch``
  must raise on the oracle's *first* fatal index leaving the session
  untouched;
* object-interner mode transitions, over **every batch split** of short
  streams whose int ids leave gaps and then fill them, or switch to string
  ids mid-stream and then feed a gap id: ``objects()`` and
  ``all_verdicts()`` must equal a dict-keyed oracle of the identity-ingest
  contract after each batch, both on a live session and on one restored
  from a snapshot at every batch boundary.

A failure message always carries the case seed, so any disagreement is
reproducible with one parametrized rerun.
"""

from __future__ import annotations

import random

import pytest

from repro.core.rolesets import RoleSet, enumerate_role_sets
from repro.engine import EnforcementError, HistoryCheckerEngine, HistoryCursor
from repro.engine.batch import IDENTITY_LIMIT
from repro.workloads import generators

BASE_SEED = 0x5EED
BASE_CASES = 200

ALIEN = RoleSet({"ALIEN_CLASS"})


def _random_case(seed):
    """``(name -> NFA, histories)`` for one seeded fuzz case."""
    rng = random.Random(seed)
    schema = generators.random_schema(classes=rng.choice([3, 4, 5]), rng=rng)
    role_sets = list(enumerate_role_sets(schema))
    specs = {}
    for index in range(rng.choice([1, 2, 3])):
        regex = generators.random_role_set_regex(schema, size=rng.choice([3, 4, 5, 6]), rng=rng)
        specs[f"spec{index}"] = regex.to_nfa(role_sets)
    guide = next(iter(specs.values()))
    histories = []
    for _ in range(rng.randrange(4, 16)):
        if rng.random() < 0.5:
            history = next(
                generators.spec_walk_histories(
                    guide, objects=1, mean_length=rng.randrange(2, 8), noise=0.2, rng=rng
                )
            )
        else:
            history = next(
                generators.random_histories(
                    role_sets, objects=1, mean_length=rng.randrange(2, 8), rng=rng
                )
            )
        if rng.random() < 0.1:
            position = rng.randrange(len(history) + 1)
            history = history[:position] + (ALIEN,) + history[position:]
        histories.append(history)
    return specs, histories


def _oracle(specs, histories):
    """Ground truth: one-shot subset construction + DFA.accepts per history."""
    verdicts = {}
    for name, nfa in specs.items():
        dfa = nfa.determinize()
        verdicts[name] = [dfa.accepts(history) for history in histories]
    return verdicts


def _register_all(engine, specs):
    for name, nfa in specs.items():
        engine.add_spec(name, nfa)


_DEAD = object()


def _enforcement_oracle(specs, events):
    """Ground truth for the ``enforce=True`` gate, independent of the engine.

    Walks the event stream with one DFA per spec, using a doomed set computed
    here by backward reachability over ``dfa.transitions`` (not the compiled
    tables' ``doomed`` vectors).  An event is fatal iff *any* spec's successor
    state cannot reach acceptance -- symbols outside a DFA's alphabet count as
    doomed successors.  Fatal events do not advance state (the gate's
    skip-and-continue semantics).  Returns the sorted fatal indices.
    """
    machines = {}
    for name, nfa in specs.items():
        dfa = nfa.determinize()
        incoming = {}
        for (state, symbol), target in dfa.transitions.items():
            incoming.setdefault(target, []).append(state)
        salvageable = set(dfa.accepting_states)
        frontier = list(salvageable)
        while frontier:
            state = frontier.pop()
            for previous in incoming.get(state, ()):
                if previous not in salvageable:
                    salvageable.add(previous)
                    frontier.append(previous)
        machines[name] = (dfa, salvageable)
    states = {}
    fatal = []
    for index, (object_id, symbol) in enumerate(events):
        current = states.setdefault(
            object_id, {name: dfa.initial_state for name, (dfa, _) in machines.items()}
        )
        successors = {}
        for name, (dfa, salvageable) in machines.items():
            if symbol not in dfa.alphabet:
                successors[name] = _DEAD
                continue
            nxt = dfa.delta(current[name], symbol)
            successors[name] = nxt if nxt in salvageable else _DEAD
        if _DEAD in successors.values():
            fatal.append(index)
        else:
            current.update(successors)
    return fatal


def _check_enforcement(specs, events, oracle_fatal, tag):
    """The enforce=True gate agrees with the DFA-walk oracle."""
    engine = HistoryCheckerEngine()
    _register_all(engine, specs)
    # Specs with an empty language doom every object from its very first
    # event; the gate rejects everything, but untouched objects legitimately
    # sit in the (doomed) initial state, so exempt them from the never-doomed
    # scan below.
    nonempty = [
        name for name in specs if not engine.compiled(name).is_doomed(engine.compiled(name).initial)
    ]

    stream = engine.open_stream(record=True)
    rejected = []
    chunk = max(1, len(events) // 3)
    for start in range(0, len(events), chunk):
        piece = events[start : start + chunk]
        report = stream.feed_events(piece, enforce=True)
        assert int(report) + len(report.rejected) == len(piece), tag
        rejected.extend(start + record.index for record in report.rejected)
    assert rejected == oracle_fatal, (tag, "gate vs oracle fatal indices")
    assert stream.events_seen == len(events) - len(oracle_fatal), tag
    # An enforced stream never reports a doomed verdict.
    for name in nonempty:
        for object_id in stream.objects(name):
            assert not stream.doomed(name, object_id), (tag, name, object_id)

    # reject_batch is all-or-nothing: it raises on the oracle's *first* fatal
    # index and leaves the session untouched.
    batch_stream = engine.open_stream(record=True)
    if oracle_fatal:
        with pytest.raises(EnforcementError) as caught:
            batch_stream.feed_events(events, enforce=True, policy="reject_batch")
        assert caught.value.index == oracle_fatal[0], tag
        assert batch_stream.events_seen == 0, tag
    else:
        report = batch_stream.feed_events(events, enforce=True, policy="reject_batch")
        assert int(report) == len(events) and not report.rejected, tag


def _check_one_case(case_seed, fresh_restore):
    specs, histories = _random_case(case_seed)
    expected = _oracle(specs, histories)
    tag = f"seed={case_seed}"

    engine = HistoryCheckerEngine()
    _register_all(engine, specs)

    # Path 1: multi-spec batch.
    assert engine.check_batch_all(histories) == expected, tag
    # Path 2: per-spec batch.
    for name in specs:
        assert engine.check_batch(name, histories) == expected[name], (tag, name)
    # Path 3: per-object cursors over the compiled table.
    for name in specs:
        spec = engine.compiled(name)
        cursor_verdicts = [
            HistoryCursor(spec).advance_many(history).accepted for history in histories
        ]
        assert cursor_verdicts == expected[name], (tag, name)

    # Path 4: streaming with a snapshot/restore mid-stream.
    events = generators.event_stream(histories, case_seed + 1)
    half = len(events) // 2
    stream = engine.open_stream(record=True)
    stream.feed_events(events[:half])
    blob = stream.snapshot()
    restored = engine.restore_stream(blob)
    assert restored.reset_on_restore == (), tag
    assert restored.events_seen == half, tag
    restored.feed_events(events[half:])
    for name in specs:
        verdicts = restored.verdicts(name)
        streamed = [verdicts[index] for index in range(len(histories))]
        assert streamed == expected[name], (tag, name, "snapshot mid-stream")

    # Path 5: restore the same blob into a fresh engine -- the process-
    # restart simulation (fingerprints must match across engines because
    # table compilation is deterministic).
    if fresh_restore:
        other = HistoryCheckerEngine()
        _register_all(other, specs)
        migrated = other.restore_stream(blob)
        assert migrated.reset_on_restore == (), tag
        migrated.feed_events(events[half:])
        for name in specs:
            verdicts = migrated.verdicts(name)
            streamed = [verdicts[index] for index in range(len(histories))]
            assert streamed == expected[name], (tag, name, "fresh-engine restore")
        # Recorded traces survive the restore and replay to the same verdict.
        for index, history in enumerate(histories):
            assert migrated.history(index) == tuple(history), (tag, index)

    # Path 6: mid-stream re-registration -- bumping one spec's generation
    # forces a kernel rebuild, so the live columns of every *other* spec are
    # carried over through state translation.
    if len(specs) > 1:
        live = engine.open_stream()
        live.feed_events(events[:half])
        names = sorted(specs)
        engine.add_spec(names[0], specs[names[0]])
        live.feed_events(events[half:])
        for name in names[1:]:
            verdicts = live.verdicts(name)
            streamed = [verdicts[index] for index in range(len(histories))]
            assert streamed == expected[name], (tag, name, "re-registration")

    # Path 7: the enforce=True admissibility gate against an independent
    # DFA-walk oracle.
    _check_enforcement(specs, events, _enforcement_oracle(specs, events), tag)


def test_differential_fuzz_all_paths_agree(fuzz_rounds):
    """>= 200 seeded cases per run: kernel = batch = cursors = DFA = stream."""
    cases = BASE_CASES * fuzz_rounds
    for case in range(cases):
        _check_one_case(BASE_SEED + case, fresh_restore=case % 4 == 0)


TRANSITION_CASES = 2
TRANSITION_EVENTS = 7


def transition_ids(events, shape, rng):
    """``events`` with object ids remapped to force an interner-mode transition.

    Objects are numbered by first appearance.  ``"gaps"``: the first half
    take even ids from 2 on in shuffled order, leaving gaps the second half
    fills with odd ids.  ``"switch"``: the first third take such even ids,
    the next third string ids (identity mode ends), the rest odd ids -- gap
    ids inside the frozen universe (1 always is) or int ids past it.
    """
    order = list(dict.fromkeys(object_id for object_id, _symbol in events))
    count = len(order)
    if shape == "gaps":
        half = (count + 1) // 2
        ids = rng.sample(range(2, 2 * half + 2, 2), half)
        ids += [2 * i + 1 for i in range(count - half)]
    else:
        third = max(1, count // 3)
        ids = rng.sample(range(2, 2 * third + 2, 2), third)
        ids += [f"s{i}" for i in range(third, 2 * third)]
        ids += [2 * i + 1 for i in range(count - 2 * third)]
    mapping = dict(zip(order, ids))
    return [(mapping[object_id], symbol) for object_id, symbol in events]


def listing_oracle(dfas, events):
    """``(objects(), all_verdicts())`` as the identity-ingest contract states
    them: int ids of the identity universe -- frozen at the first id that is
    not one -- ascending, then every other id in order of first sight."""
    histories = {}
    universe, identity = 0, True
    for object_id, symbol in events:
        histories.setdefault(object_id, []).append(symbol)
        if identity and type(object_id) is int and 0 <= object_id < IDENTITY_LIMIT:
            universe = max(universe, object_id + 1)
        else:
            identity = False
    in_universe = {o for o in histories if type(o) is int and 0 <= o < universe}
    rest = [o for o in histories if o not in in_universe]
    verdicts = {
        name: {o: dfa.accepts(history) for o, history in histories.items()}
        for name, dfa in dfas.items()
    }
    return tuple(sorted(in_universe)) + tuple(rest), verdicts


def _splits(count):
    """Every way to cut ``count`` events into consecutive non-empty batches."""
    for mask in range(1 << max(0, count - 1)):
        cuts = [0] + [i + 1 for i in range(count - 1) if mask >> i & 1] + [count]
        yield list(zip(cuts, cuts[1:]))


def _transition_case(seed, shape):
    """A short seeded stream (<= TRANSITION_EVENTS events) for one shape."""
    specs, histories = _random_case(seed)
    rng = random.Random(seed)
    events = []
    while not events:
        picked = rng.sample(histories, min(5, len(histories)))
        chosen = [history[: rng.randrange(1, 3)] for history in picked]
        events = generators.event_stream(chosen, seed)[:TRANSITION_EVENTS]
    return specs, transition_ids(events, shape, rng)


def _check_transition_case(seed, shape):
    specs, events = _transition_case(seed, shape)
    dfas = {name: nfa.determinize() for name, nfa in specs.items()}
    engine = HistoryCheckerEngine()
    _register_all(engine, specs)
    for split in _splits(len(events)):
        tag = (seed, shape, split)
        live = engine.open_stream()
        chained = engine.open_stream(record=True)
        for start, stop in split:
            live.feed_events(events[start:stop])
            chained.feed_events(events[start:stop])
            expected = listing_oracle(dfas, events[:stop])
            assert (live.objects(), live.all_verdicts()) == expected, tag
            # Restore at every boundary and keep feeding the restored copy.
            chained = engine.restore_stream(chained.snapshot())
            assert (chained.objects(), chained.all_verdicts()) == expected, tag
            for object_id in expected[0]:
                fed = tuple(symbol for o, symbol in events[:stop] if o == object_id)
                assert chained.history(object_id) == fed, tag


@pytest.mark.parametrize("shape", ["gaps", "switch"])
def test_interner_mode_transitions_agree_on_every_batch_split(shape, fuzz_rounds):
    """Gaps filled later and mid-stream id-kind switches, every batch split."""
    for case in range(TRANSITION_CASES * fuzz_rounds):
        _check_transition_case(BASE_SEED + 20_000 + case, shape)


def test_fuzz_case_generator_is_deterministic():
    """The case generator itself is a function of the seed alone."""
    specs_a, histories_a = _random_case(BASE_SEED)
    specs_b, histories_b = _random_case(BASE_SEED)
    assert histories_a == histories_b
    assert sorted(specs_a) == sorted(specs_b)
    for name in specs_a:
        outcome_a = _oracle({name: specs_a[name]}, histories_a)
        outcome_b = _oracle({name: specs_b[name]}, histories_b)
        assert outcome_a == outcome_b


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
