"""Self-test of the monitor benchmark at toy size.

Runs every workload of BENCHMARK.json, untraced and traced, through the real
command line at 1/10 of the full input size, and asserts that every declared
end-to-end and per-layer metric is emitted, by name and with its unit, and
that no operation failed.  A change that renames or drops a metric fails
here.  Run with ``python3 -m pytest monitor_bench -q`` from the checkout root.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.1"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert re.search(r"^\s*error_rate\s+0 \(", proc.stdout, re.MULTILINE), proc.stdout


def test_refuses_to_run_without_the_monitor_sources():
    bare = os.path.join(ROOT, ".monitor_bench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "monitor_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("stream_ingest", 0, cwd=bare, script=os.path.join("monitor_bench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        with tracer.span("child") as child:
            pass
    own = tracer.self_totals()
    assert own["parent"] == pytest.approx(parent.duration - child.duration)
    assert own["child"] == pytest.approx(child.duration)
    assert tracer.spans[1].parent == parent.span_id
