"""``benchmarks/ci_gate.py update --case``: one case joins the baseline.

The named case is rescaled into the committed calibration's units, the
calibration and every other case stay as committed, and a case the run
lacks, an unstable one or one under the tracking floor is refused without
touching the file.  The calibration is monkeypatched, so nothing is timed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_GATE = Path(__file__).resolve().parents[2] / "benchmarks" / "ci_gate.py"


@pytest.fixture
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location("ci_gate", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # This machine runs the spin twice as fast as the committed baseline's.
    monkeypatch.setattr(module, "calibrate", lambda repeats=5: 0.02)
    return module


@pytest.fixture
def files(tmp_path):
    baseline = tmp_path / "baseline.json"
    committed = {"calibration": 0.04, "min_track": 0.05, "cases": {"old": 0.1, "kept": 0.3}}
    baseline.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")
    medians = {"old": 0.5, "kept": 0.9, "new": 0.06, "tiny": 0.02}
    medians["test_e12_bounded_enumeration_agrees_with_analysis"] = 1.0
    report = {"benchmarks": [{"name": k, "stats": {"median": v}} for k, v in medians.items()]}
    current = tmp_path / "current.json"
    current.write_text(json.dumps(report))
    return current, baseline, committed


def _update(gate, current, baseline, *cases):
    argv = ["update", "--current", str(current), "--baseline", str(baseline)]
    for name in cases:
        argv += ["--case", name]
    return gate.main(argv)


def test_named_cases_are_rescaled_into_the_committed_calibration(gate, files):
    current, baseline, committed = files
    assert _update(gate, current, baseline, "new", "old") == 0
    written = json.loads(baseline.read_text())
    assert written["calibration"] == committed["calibration"]
    assert written["min_track"] == committed["min_track"]
    # median x committed calibration / calibration now = median x 2.
    assert written["cases"] == {"old": pytest.approx(1.0), "kept": 0.3, "new": pytest.approx(0.12)}


@pytest.mark.parametrize(
    "name",
    ["tiny", "missing", "test_e12_bounded_enumeration_agrees_with_analysis"],
    ids=["under-the-floor", "not-in-the-run", "unstable"],
)
def test_a_refused_case_leaves_the_baseline_untouched(gate, files, name, capsys):
    current, baseline, _committed = files
    before = baseline.read_bytes()
    # The floor applies to the rescaled median: 0.02 x 2 = 0.04 < 0.05.
    assert _update(gate, current, baseline, "new", name) == 1
    assert baseline.read_bytes() == before
    assert name in capsys.readouterr().err
