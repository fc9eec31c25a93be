"""Differential chaos fuzzing: crash, corrupt, kill -- verdicts never change.

Four seeded suites (100+ cases per tier-1 run; ``--fuzz-rounds`` multiplies
the counts for the nightly chaos job), all pinned to the same invariant:
whatever faults are injected, the surviving session's verdicts are
**identical** to an uninterrupted single-process oracle fed the same
durable prefix.

* **WAL crash/recover** -- seeded durable sessions crash at a random point
  with a randomly chosen corruption (clean crash, torn segment tail,
  bit-flipped segment, corrupted newest checkpoint); recovery must land on
  an exact event prefix, match the oracle's objects and verdicts over it,
  and keep streaming to the same final state.  Streams use int ids, string
  ids, or ids that force an object-interner mode transition (gaps filled
  later, a mid-stream switch to string ids followed by a gap id); for the
  transition shapes, every batch split of a short stream is journaled and
  recovered at every record boundary;
* **snapshot wire fuzz** -- random prefixes, bit flips, garbage and
  trailing junk over real snapshot blobs must raise
  :class:`~repro.engine.snapshot.SnapshotError` or restore cleanly --
  never ``struct.error``, ``zlib.error``, pickle errors or ``MemoryError``;
* **supervised pool chaos** -- worker kills, injected exceptions and hung
  shards (via :mod:`repro.testing.faults` inside the *production* shard
  function) under :class:`~repro.engine.supervisor.SupervisedExecutor`
  must still return the serial oracle's batch verdicts;
* **SIGKILL mid-stream** -- a subprocess feeding a durable session is
  SIGKILLed between batches; the parent recovers the journal, checks the
  durable prefix byte-for-byte against the oracle, resumes the stream, and
  (in the combined acceptance case) re-checks the final verdicts through a
  supervised pool whose worker is killed mid-dispatch.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys

import pytest

import repro
from repro.core.rolesets import enumerate_role_sets
from repro.engine import (
    FaultPolicy,
    HistoryCheckerEngine,
    ProcessPoolShardExecutor,
    SnapshotError,
    SupervisedExecutor,
)
from repro.engine.journal import _segment_path, _SegmentReader
from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    bit_flip,
    corrupt_file,
    inject,
    tear_file,
)
from repro.workloads import generators
from test_differential_fuzz import transition_ids

BASE_SEED = 0xFA17

WAL_CASES = 60
SNAPSHOT_CASES = 30
POOL_CASES = 12
SIGKILL_CASES = 3

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_TEST_DIR = os.path.dirname(os.path.abspath(__file__))


def _random_case(seed):
    """``(name -> NFA, histories)`` -- a small seeded case."""
    rng = random.Random(seed)
    schema = generators.random_schema(classes=rng.choice([3, 4]), rng=rng)
    role_sets = list(enumerate_role_sets(schema))
    specs = {}
    for index in range(rng.choice([1, 2])):
        regex = generators.random_role_set_regex(schema, size=rng.choice([3, 4, 5]), rng=rng)
        specs[f"spec{index}"] = regex.to_nfa(role_sets)
    histories = [
        next(
            generators.random_histories(
                role_sets, objects=1, mean_length=rng.randrange(3, 8), rng=rng
            )
        )
        for _ in range(rng.randrange(5, 13))
    ]
    return specs, histories


def _stream_case(seed):
    """``(specs, events)`` -- the case plus its interleaved event stream."""
    specs, histories = _random_case(seed)
    events = generators.event_stream(histories, seed + 1)
    return specs, events


def _engine(specs, **kwargs):
    engine = HistoryCheckerEngine(kernel="fused", **kwargs)
    for name, nfa in specs.items():
        engine.add_spec(name, nfa)
    return engine


def _stream_oracle(specs, events):
    """Verdicts of an uninterrupted in-memory session over ``events``."""
    stream = _engine(specs).open_stream()
    stream.feed_events(events)
    return stream.all_verdicts()


def _listing(stream):
    return stream.objects(), stream.all_verdicts()


# --------------------------------------------------------------------------- #
# Suite 1: WAL crash / corrupt / recover
# --------------------------------------------------------------------------- #
def _run_wal_crash_case(seed, directory):
    rng = random.Random(seed)
    specs, events = _stream_case(seed)
    ids = rng.random()
    if ids < 0.25:
        events = [(f"acct-{obj}", sym) for obj, sym in events]  # dict-mode ids
    elif ids < 0.5:
        events = transition_ids(events, rng.choice(["gaps", "switch"]), rng)
    batch = rng.choice([1, 3, 5, 8])
    checkpoint_every = rng.choice([None, 7, 13, 25])
    tag = f"seed={seed}"

    durable = _engine(specs).open_durable_stream(
        directory, checkpoint_every=checkpoint_every, retain=2
    )
    cut = rng.randrange(0, len(events) + 1)
    for start in range(0, cut, batch):
        durable.feed_events(events[start : min(start + batch, cut)])
    assert durable.events_seen == cut, tag
    if rng.random() < 0.5:
        durable.close()  # clean shutdown; else: abandoned handle, a crash

    scenario = rng.choice(["clean", "clean", "tear", "flip", "checkpoint"])
    checkpoints = sorted(n for n in os.listdir(directory) if n.endswith(".snap"))
    segments = sorted(n for n in os.listdir(directory) if n.endswith(".log"))
    if scenario == "checkpoint" and len(checkpoints) < 2:
        scenario = "clean"  # a lone generation cannot fall back
    if scenario == "tear":
        tear_file(os.path.join(directory, segments[-1]), drop=rng.randrange(1, 48))
    elif scenario == "flip":
        corrupt_file(os.path.join(directory, segments[-1]), seed=rng.randrange(1 << 30))
    elif scenario == "checkpoint":
        corrupt_file(os.path.join(directory, checkpoints[-1]), seed=rng.randrange(1 << 30))

    recovered = _engine(specs).recover_stream(
        directory, checkpoint_every=checkpoint_every, retain=2
    )
    fed = recovered.events_seen
    if scenario in ("clean", "checkpoint"):
        # Every append was flushed before the crash; nothing may vanish.
        assert fed == cut, (tag, scenario)
        assert recovered.truncated_records == 0, (tag, scenario)
    else:
        assert fed <= cut, (tag, scenario)
    # The recovered state is exactly the oracle's at the durable prefix ...
    oracle = _engine(specs).open_stream()
    oracle.feed_events(events[:fed])
    assert _listing(recovered.stream) == _listing(oracle), (tag, scenario)
    # ... and the session is live: resuming the stream converges with the
    # uninterrupted run (the recovered prefix is a true prefix).
    recovered.feed_events(events[fed:])
    oracle.feed_events(events[fed:])
    assert recovered.events_seen == len(events), (tag, scenario)
    assert _listing(recovered.stream) == _listing(oracle), (tag, scenario)
    recovered.close()


def test_wal_crash_recover_fuzz(fuzz_rounds, tmp_path):
    for case in range(WAL_CASES * fuzz_rounds):
        _run_wal_crash_case(BASE_SEED + case, str(tmp_path / f"journal-{case}"))


TRANSITION_CASES = 2
TRANSITION_EVENTS = 6


def _record_ends(path):
    """The byte offset just past each record of one journal segment."""
    starts = [offset for _rtype, _body, offset in _SegmentReader(path).records()]
    return starts[1:] + [os.path.getsize(path)]


def _run_record_boundary_case(seed, shape, directory):
    """Journal every batch split of a short transition stream; recover it at
    every record boundary and pin the listing to the uninterrupted oracle."""
    rng = random.Random(seed)
    specs, events = _stream_case(seed)
    events = transition_ids(events[:TRANSITION_EVENTS], shape, rng)
    count = len(events)
    for mask in range(1 << (count - 1)):
        cuts = [0] + [i + 1 for i in range(count - 1) if mask >> i & 1] + [count]
        journal = os.path.join(directory, f"split-{mask}")
        durable = _engine(specs).open_durable_stream(journal, checkpoint_every=None)
        for start, stop in zip(cuts, cuts[1:]):
            durable.feed_events(events[start:stop])
        durable.close()
        segment = _segment_path(journal, 0)
        # Record 0 is the segment header; record k + 1 carries batch k.
        for records, end in enumerate(_record_ends(segment)):
            crashed = os.path.join(directory, f"split-{mask}-at-{records}")
            shutil.copytree(journal, crashed)
            os.truncate(_segment_path(crashed, 0), end)
            recovered = _engine(specs).recover_stream(crashed, checkpoint_every=None)
            oracle = _engine(specs).open_stream()
            oracle.feed_events(events[: cuts[records]])
            tag = (seed, shape, cuts, records)
            assert recovered.events_seen == cuts[records], tag
            assert _listing(recovered.stream) == _listing(oracle), tag
            recovered.close()


@pytest.mark.parametrize("shape", ["gaps", "switch"])
def test_wal_recovery_at_every_record_boundary_across_mode_transitions(
    shape, fuzz_rounds, tmp_path
):
    for case in range(TRANSITION_CASES * fuzz_rounds):
        directory = tmp_path / f"case-{case}"
        directory.mkdir()
        _run_record_boundary_case(BASE_SEED + 30_000 + case, shape, str(directory))


# --------------------------------------------------------------------------- #
# Suite 2: snapshot wire fuzz
# --------------------------------------------------------------------------- #
#: The only exception restore may raise on malformed bytes.
_FORBIDDEN = "snapshot restore must raise SnapshotError, never {}: seed={} mutation={}"


def _run_snapshot_fuzz_case(seed):
    rng = random.Random(seed)
    specs, events = _stream_case(seed)
    engine = _engine(specs)
    stream = engine.open_stream(record=rng.random() < 0.5)
    stream.feed_events(events[: len(events) // 2])
    blob = stream.snapshot()
    engine.restore_stream(blob)  # sanity: the pristine blob restores

    for mutation in range(4):
        kind = rng.choice(["prefix", "flip", "flip", "garbage", "extend"])
        if kind == "prefix":
            mutated = blob[: rng.randrange(0, len(blob))]
        elif kind == "flip":
            mutated = bit_flip(blob, rng=rng, flips=rng.choice([1, 1, 1, 3]))
        elif kind == "garbage":
            mutated = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 64)))
        else:
            mutated = blob + bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 9)))
        if mutated == blob:
            continue
        try:
            engine.restore_stream(mutated)
        except SnapshotError:
            pass  # the contract: one exception type for every malformation
        except Exception as exc:  # noqa: BLE001 - the assertion under test
            pytest.fail(_FORBIDDEN.format(type(exc).__name__, seed, (mutation, kind)))


def test_snapshot_wire_fuzz_never_leaks_parser_errors(fuzz_rounds):
    for case in range(SNAPSHOT_CASES * fuzz_rounds):
        _run_snapshot_fuzz_case(BASE_SEED + 50_000 + case)


# --------------------------------------------------------------------------- #
# Suite 3: supervised pool chaos
# --------------------------------------------------------------------------- #
def _run_pool_chaos_case(seed, scope_dir):
    rng = random.Random(seed)
    specs, histories = _random_case(seed)
    expected = _engine(specs).check_batch_all(histories)
    tag = f"seed={seed}"

    action = rng.choice(["kill", "raise", "raise", "delay"])
    if action == "delay":
        spec = FaultSpec("worker.shard", "delay", times=1, delay=0.8)
        policy = FaultPolicy(
            max_attempts=4, shard_timeout=0.25, backoff_base=0.001, max_respawns=3, seed=seed
        )
    else:
        spec = FaultSpec("worker.shard", action, times=rng.choice([1, 2]))
        policy = FaultPolicy(max_attempts=4, backoff_base=0.001, max_respawns=3, seed=seed)
    injector = FaultInjector([spec], seed=seed, scope_dir=scope_dir)
    init_fn, init_args = injector.initializer()
    inner = ProcessPoolShardExecutor(max_workers=2, initializer=init_fn, initargs=init_args)
    with HistoryCheckerEngine(
        executor=SupervisedExecutor(inner, policy),
        batch_size=2,
        min_shard_events=1,
        kernel="fused",
    ) as engine:
        for name, nfa in specs.items():
            engine.add_spec(name, nfa)
        with inject(injector):
            assert engine.check_batch_all(histories) == expected, (tag, action)
        stats = engine.stats()["fault_tolerance"]
        if action == "kill":
            assert stats["respawns"] >= 1, tag
        elif action == "delay":
            assert stats["timeouts"] >= 1, tag
        else:
            assert stats["retries"] + stats["quarantined"] >= 1, tag


def test_supervised_pool_chaos_fuzz(fuzz_rounds, tmp_path):
    for case in range(POOL_CASES * fuzz_rounds):
        scope = tmp_path / f"scope-{case}"
        scope.mkdir()
        _run_pool_chaos_case(BASE_SEED + 80_000 + case, str(scope))


# --------------------------------------------------------------------------- #
# Suite 4: SIGKILL mid-stream, recover in the parent
# --------------------------------------------------------------------------- #
_CHILD_SCRIPT = """\
import os, signal, sys
sys.path.insert(0, sys.argv[5])
import test_fault_fuzz as chaos

seed, directory, cut, batch = int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
specs, events = chaos._stream_case(seed)
durable = chaos._engine(specs).open_durable_stream(directory, checkpoint_every=11)
for start in range(0, cut, batch):
    durable.feed_events(events[start : min(start + batch, cut)])
os.kill(os.getpid(), signal.SIGKILL)  # no close, no flush beyond the WAL's own
"""


def _sigkill_child(seed, directory, cut, batch):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD_SCRIPT,
            str(seed),
            directory,
            str(cut),
            str(batch),
            _TEST_DIR,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == -signal.SIGKILL, completed.stderr
    return completed


def _run_sigkill_case(seed, directory, scope_dir, with_pool_chaos):
    rng = random.Random(seed)
    specs, events = _stream_case(seed)
    batch = rng.choice([2, 3, 5])
    cut = rng.randrange(batch, len(events) + 1)
    _sigkill_child(seed, directory, cut, batch)

    recovered = _engine(specs).recover_stream(directory)
    # Appends flush per batch, so SIGKILL between batches loses exactly
    # nothing: the durable prefix is every event the child fed.
    assert recovered.events_seen == cut, f"seed={seed}"
    assert recovered.all_verdicts() == _stream_oracle(specs, events[:cut]), f"seed={seed}"
    recovered.feed_events(events[cut:])
    final = recovered.all_verdicts()
    assert final == _stream_oracle(specs, events), f"seed={seed}"
    recovered.close()

    if not with_pool_chaos:
        return
    # The combined acceptance scenario: the same case's batch verdicts via a
    # supervised pool whose worker is killed mid-dispatch must agree with
    # the recovered-and-resumed stream.
    _specs, histories = _random_case(seed)
    injector = FaultInjector(
        [FaultSpec("worker.shard", "kill", times=1)], seed=seed, scope_dir=scope_dir
    )
    init_fn, init_args = injector.initializer()
    inner = ProcessPoolShardExecutor(max_workers=2, initializer=init_fn, initargs=init_args)
    with HistoryCheckerEngine(
        executor=SupervisedExecutor(
            inner, FaultPolicy(max_attempts=3, backoff_base=0.001, seed=seed)
        ),
        batch_size=2,
        min_shard_events=1,
        kernel="fused",
    ) as pool_engine:
        for name, nfa in specs.items():
            pool_engine.add_spec(name, nfa)
        with inject(injector):
            batch_verdicts = pool_engine.check_batch_all(histories)
        assert pool_engine.stats()["fault_tolerance"]["respawns"] >= 1, f"seed={seed}"
    for name, verdicts in batch_verdicts.items():
        streamed = [final[name][index] for index in range(len(histories))]
        assert streamed == verdicts, (f"seed={seed}", name)


def test_sigkill_mid_stream_recovers_to_oracle_verdicts(fuzz_rounds, tmp_path):
    for case in range(SIGKILL_CASES * fuzz_rounds):
        scope = tmp_path / f"scope-{case}"
        scope.mkdir()
        _run_sigkill_case(
            BASE_SEED + 90_000 + case,
            str(tmp_path / f"journal-{case}"),
            str(scope),
            with_pool_chaos=case == 0,
        )


def test_chaos_case_generator_is_deterministic():
    """Chaos cases are a function of the seed alone -- reruns reproduce."""
    specs_a, events_a = _stream_case(BASE_SEED)
    specs_b, events_b = _stream_case(BASE_SEED)
    assert events_a == events_b
    assert sorted(specs_a) == sorted(specs_b)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
