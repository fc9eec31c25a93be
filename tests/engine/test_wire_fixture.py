"""Snapshot and journal bytes written by an earlier build still restore.

Round trips inside one build cannot see a change made to a writer and its
reader together, so the wire formats are pinned against committed bytes:
``data/wire-parent/`` holds what ``data/make_wire_fixture.py`` wrote on the
commit before the single-kernel engine -- a recording session over string
ids, fed through the enforcement gate with refusals, whose journal cut two
checkpoints.  ``journal/`` is that build's own journal, with WAL columns
narrowed to ``B``/``H``; ``journal-no-numpy/`` is the same session written
by that build without numpy, whose WAL columns are int64 ``q``.  Byte
equality of fresh dumps is deliberately not asserted here: packed trace
columns are zlib-compressed, and zlib builds differ across machines.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.engine import HistoryCheckerEngine
from repro.engine.journal import RT_EVENTS, _SegmentReader
from repro.engine.snapshot import restricted_loads
from repro.workloads import generators

FIXTURE = Path(__file__).resolve().parent / "data" / "wire-parent"


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURE / "expected.json").read_text())


def _engine():
    engine = HistoryCheckerEngine()
    for name, spec in generators.banking_monitoring_suite().items():
        engine.add_spec(name, spec)
    return engine


def _same_session(stream, expected):
    assert stream.events_seen == expected["events_seen"]
    assert list(stream.objects()) == expected["objects"]
    assert stream.all_verdicts() == expected["verdicts"]


def test_snapshot_of_the_parent_build_restores_to_its_verdicts(expected):
    restored = _engine().restore_stream((FIXTURE / "stream.snap").read_bytes())
    assert restored.reset_on_restore == ()
    _same_session(restored, expected)


@pytest.mark.parametrize("journal", ["journal", "journal-no-numpy"])
def test_journal_of_the_parent_build_recovers_to_its_verdicts(journal, expected, tmp_path):
    copy = tmp_path / journal
    shutil.copytree(FIXTURE / journal, copy)
    recovered = _engine().recover_stream(copy, checkpoint_every=None)
    assert recovered.truncated_records == 0
    _same_session(recovered.stream, expected)
    recovered.close()


def test_the_no_numpy_journal_carries_int64_columns():
    # The fixture exists to pin replay of q-typed WAL columns.
    typecodes = set()
    for segment in sorted((FIXTURE / "journal-no-numpy").glob("wal-*.log")):
        for rtype, body, _offset in _SegmentReader(str(segment)).records():
            if rtype == RT_EVENTS:
                payload = restricted_loads(body)
                typecodes.update((payload["ids"][0], payload["codes"][0]))
    assert typecodes == {"q"}
