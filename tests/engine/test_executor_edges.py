"""Batch-path edge cases on the default engine.

``check_batch``, ``check_batch_all`` and ``screen_histories`` encode a batch
once and run the kernel in-process.  The boundary conditions -- empty
batches, a single history, zero registered specs, input order -- are ones
the happy-path benchmarks never hit.
"""

from __future__ import annotations

import pytest

from repro.engine import HistoryCheckerEngine
from repro.workloads import banking, generators


@pytest.fixture(scope="module")
def histories():
    return list(generators.banking_event_stream(71, 20, noise=0.3)[0])


def _engine():
    engine = HistoryCheckerEngine()
    engine.add_spec("checking_roles", banking.checking_role_inventory())
    engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
    return engine


def test_empty_batch():
    engine = _engine()
    empty = {"checking_roles": [], "no_downgrade": []}
    assert engine.check_batch("checking_roles", []) == []
    assert engine.check_batch_all([]) == empty
    assert engine.screen_histories([]) == empty
    verdicts, violations = engine.check_batch("checking_roles", [], explain=True)
    assert verdicts == [] and violations == []


def test_single_history(histories):
    engine = _engine()
    one = histories[:1]
    oracle = engine.compiled("checking_roles")
    assert engine.check_batch("checking_roles", one) == [oracle.accepts(one[0])]
    assert engine.check_batch_all(one) == {
        name: [engine.compiled(name).accepts(one[0])] for name in engine.spec_names()
    }


def test_zero_registered_specs():
    engine = HistoryCheckerEngine()
    assert engine.check_batch_all([["whatever"]]) == {}
    assert engine.screen_histories([["whatever"]]) == {}
    assert engine.spec_names() == ()
    stream = engine.open_stream()
    assert stream.feed_events([(0, banking.ROLE_INTEREST)]) == 1
    assert stream.events_seen == 1
    with pytest.raises(KeyError):
        engine.check_batch("missing", [])


def test_pool_results_preserve_input_order(histories):
    # Verdicts come back in input order, for one spec and for all of them.
    engine = _engine()
    reversed_histories = list(reversed(histories))
    forward = engine.check_batch("checking_roles", histories)
    backward = engine.check_batch("checking_roles", reversed_histories)
    assert backward == list(reversed(forward))
    forward_all = engine.check_batch_all(histories)
    backward_all = engine.check_batch_all(reversed_histories)
    assert backward_all == {name: list(reversed(v)) for name, v in forward_all.items()}
