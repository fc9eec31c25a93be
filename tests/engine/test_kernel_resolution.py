"""When a stream resolves its kernel, and what it refuses to resolve.

A stream asks the engine for a kernel only when one of its specs'
generations or the engine's alphabet size has moved since its kernel was
built; each spec's compiled tables live on the engine, once per
registration.  These tests pin both halves of that contract -- the steady
state asks the kernel cache nothing, and every change that moves a
generation or the alphabet forces a rebuild whose verdicts still equal
``DFA.accepts`` -- plus the one ``KeyError`` for a spec a stream does not
check.
"""

import pytest

from repro import obs
from repro.engine import HistoryCheckerEngine
from repro.engine.batch import ObjectInterner
from repro.workloads import banking, generators

IC = banking.ROLE_INTEREST
ALIEN = frozenset({"ALIEN"})
NOT_CHECKED = r"spec '{}' is not checked by this stream; have \('checking',\)"
UNKNOWN = r"unknown specification '{}'; registered: \['checking', 'no_downgrade'\]"
HITS = 'repro_engine_cache_hits_total{cache="kernel"}'
MISSES = 'repro_engine_cache_misses_total{cache="kernel"}'


def _suite_engine(registry=None):
    _histories, events, suite = generators.conforming_banking_stream(
        seed=41, objects=60, mean_length=6, noise=0.2
    )
    engine = HistoryCheckerEngine(obs=registry if registry is not None else False)
    for name, spec in suite.items():
        engine.add_spec(name, spec)
    return engine, events, suite


def _histories(events):
    histories = {}
    for object_id, symbol in events:
        histories.setdefault(object_id, []).append(symbol)
    return histories


def test_steady_state_feeds_keep_the_kernel_and_leave_the_kernel_cache_alone():
    engine, events, suite = _suite_engine(obs.MetricsRegistry("steady"))
    engine.add_spec("unchecked", banking.no_downgrade_inventory())
    stream = engine.open_stream(tuple(suite))
    stream.feed_events(events)
    kernel = stream._kernel
    metrics = engine.stats()["metrics"]
    before = (metrics[HITS], metrics[MISSES])
    for _ in range(20):
        stream.feed_events(events[:100])  # known objects, known role sets
    # Re-registering a spec the stream does not check moves none of its
    # generations, so it resets nothing and rebuilds nothing either.
    engine.add_spec("unchecked", banking.no_downgrade_inventory())
    stream.feed_events(events[:100])
    metrics = engine.stats()["metrics"]
    assert (metrics[HITS], metrics[MISSES]) == before
    assert stream._kernel is kernel
    assert stream.last_revalidation is None


def _other_stream(engine, suite, recorded):
    engine.open_stream(["checking_roles"]).feed_events([(0, ALIEN)])


def _encode_events(engine, suite, recorded):
    engine.encode_events([(0, ALIEN)])


def _check_batch_all(engine, suite, recorded):
    engine.check_batch_all([(IC, ALIEN)])


def _restore_snapshot(engine, suite, recorded):
    engine.restore_stream(recorded)


def _reregister(engine, suite, recorded):
    engine.add_spec("no_downgrade", suite["no_downgrade"])


CHANGES = {
    "other_stream": _other_stream,
    "encode_events": _encode_events,
    "check_batch_all": _check_batch_all,
    "restore_snapshot": _restore_snapshot,
    "reregister": _reregister,
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_each_change_between_feeds_forces_reresolution(change):
    engine, events, suite = _suite_engine()
    # A recorded snapshot from another engine, whose traces carry a role
    # set this engine has never seen.
    elsewhere, _events, _suite = _suite_engine()
    source = elsewhere.open_stream(record=True)
    source.feed_events([(0, IC), (1, ALIEN)])
    recorded = source.snapshot()

    cut = len(events) // 2
    # The second feed carries the new role set too: a kernel left at the old
    # alphabet size could not advance it.
    head, tail = events[:cut], events[cut:] + [(events[0][0], ALIEN)]
    stream = engine.open_stream()
    stream.feed_events(head)
    kernel, width = stream._kernel, len(engine.alphabet)
    CHANGES[change](engine, suite, recorded)
    assert (len(engine.alphabet) > width) != (change == "reregister")
    stream.feed_events(tail)

    assert stream._kernel is not kernel
    verdicts = stream.all_verdicts()
    full = _histories(head + tail)
    for name, spec in suite.items():
        histories = full
        if change == "reregister" and name == "no_downgrade":
            histories = _histories(tail)  # restarted at re-registration
        expected = {object_id: spec.automaton.accepts(h) for object_id, h in histories.items()}
        assert verdicts[name] == expected, name
    if change == "reregister":
        assert stream.last_revalidation.specs == ("no_downgrade",)
    else:
        assert stream.last_revalidation is None


STREAM_READS = {
    "verdict": lambda stream, name: stream.verdict(name, 0),
    "verdicts": lambda stream, name: stream.verdicts(name),
    "explain_all": lambda stream, name: stream.explain_all(name),
    "objects": lambda stream, name: stream.objects(name),
    "doomed": lambda stream, name: stream.doomed(name, 0),
    "admissible": lambda stream, name: stream.admissible(0, IC, name),
    "explain": lambda stream, name: stream.explain(name, 0, history=(IC,)),
}
BATCH_CALLS = {
    "check_batch_all": lambda engine, name: engine.check_batch_all([(IC,)], [name]),
    "screen_histories": lambda engine, name: engine.screen_histories([(IC,)], [name]),
}
#: A registered spec the stream does not check, and a name nothing registered.
CASES = [(call, name) for call in sorted(STREAM_READS) for name in ("no_downgrade", "nope")]
CASES += [(call, "nope") for call in sorted(BATCH_CALLS)]


@pytest.mark.parametrize("call, name", CASES)
def test_a_spec_outside_the_selection_gets_one_error(call, name):
    engine = HistoryCheckerEngine()
    engine.add_spec("checking", banking.checking_role_inventory())
    engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
    if call in BATCH_CALLS:
        with pytest.raises(KeyError, match=UNKNOWN.format(name)):
            BATCH_CALLS[call](engine, name)
        return
    stream = engine.open_stream(["checking"], record=True)
    stream.feed_events([(0, IC)])
    with pytest.raises(KeyError, match=NOT_CHECKED.format(name)):
        STREAM_READS[call](stream, name)


def test_a_stream_without_specs_lists_the_objects_present():
    stream = HistoryCheckerEngine().open_stream([])
    stream.feed_events([(5, IC), (2, IC), (5, IC)])
    assert stream.objects() == (2, 5)
    stream.feed_events([("acct", IC)])
    assert stream.objects() == (2, 5, "acct")
    assert stream.all_verdicts() == {}


def test_all_verdicts_decodes_the_present_objects_once(monkeypatch):
    engine, events, suite = _suite_engine()
    events = [(f"acct-{object_id}", symbol) for object_id, symbol in events]  # dict mode
    cut = len(events) // 2
    head, tail = events[:cut], events[cut:]
    stream = engine.open_stream()
    stream.feed_events(head)
    engine.add_spec("no_downgrade", suite["no_downgrade"])
    stream.feed_events(tail)
    decoded = []
    objects = ObjectInterner.objects

    def counting(self, codes):
        decoded.append(len(codes))
        return objects(self, codes)

    monkeypatch.setattr(ObjectInterner, "objects", counting)
    verdicts = stream.all_verdicts()
    # Five specs track the present objects and share one decode; the
    # re-registered spec tracks those seen since, a different set.
    present, since = _histories(head + tail), _histories(tail)
    assert sorted(decoded) == sorted([len(present), len(since)])
    assert len(since) < len(present)
    assert verdicts == {name: stream.verdicts(name) for name in suite}
    for name, spec in suite.items():
        histories = since if name == "no_downgrade" else present
        expected = {object_id: spec.automaton.accepts(h) for object_id, h in histories.items()}
        assert verdicts[name] == expected, name
