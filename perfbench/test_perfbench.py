"""Tests of the benchmark's own parts: input generation, tracing and checks."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SAMPLE = ROOT / "src" / "equimine" / "data" / "sample"


def _tree_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_panel_inputs_are_byte_identical_per_seed(tmp_path):
    a = _tree_bytes(gen.write_panel(7, SAMPLE, tmp_path / "a").parent)
    b = _tree_bytes(gen.write_panel(7, SAMPLE, tmp_path / "b").parent)
    c = _tree_bytes(gen.write_panel(8, SAMPLE, tmp_path / "c").parent)
    assert a == b
    assert a["indicators.csv"] != c["indicators.csv"]
    assert a["indicators.csv"].count(b"\n") == 1 + gen.PANEL_COUNTRIES * len(gen.PANEL_YEARS)


def test_scenario_cases_are_byte_identical_per_seed():
    def raw(seed, index):
        case = gen.scenario_case(seed, index)
        return [v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(case).values()]

    assert raw(3, 5) == raw(3, 5)
    assert raw(3, 5) != raw(4, 5)
    assert raw(3, 5) != raw(3, 6)


def test_scenario_cases_pass_their_invariants():
    for index in range(3):
        case = gen.scenario_case(1, index)
        outcome = worker.study(case, worker._prepare(case))
        assert checks.scenario_invariants(outcome) == []
        assert checks.critical_mismatches(outcome["criticals"]) == []
        assert len(outcome["criticals"]) == 7


def test_fold_self_time_and_nesting():
    spans_ = [
        ["pipeline.run", 0.0, 10.0, -1],
        ["sensnet.sweep", 1.0, 9.0, 0],
        ["sensnet.train", 1.0, 7.0, 1],
        ["mcda.consistency", 9.0, 9.5, 0],
        ["mcda.weights", 9.1, 9.2, 3],
        ["mcda.weights", 9.6, 9.7, 0],
    ]
    figures = spans.fold(spans_, 12.0)
    assert figures["pipeline.run_s"] == 10.0
    assert figures["pipeline.self_s"] == pytest.approx(10.0 - 8.0 - 0.5 - 0.1)
    assert figures["sensnet.train_s"] == 6.0
    assert figures["mcda.weights_s"] == pytest.approx(0.2)
    assert figures["bench.unattributed_s"] == 2.0
    assert figures["stats.t_test_calls"] == 0


def test_install_traces_calls_and_undoes(monkeypatch):
    from equimine import mcda, stats

    monkeypatch.setitem(spans.TRACED, "stats", [("t_test", "stats.t_test"),
                                                ("renamed_away", "stats.pearson")])
    original = stats.t_test
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        stats.t_test(0.5, 30)
        stats.t_test(0.2, 30)
        mcda.consistency(mcda.PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]])))
    finally:
        spans.uninstall(undo)
    assert stats.t_test is original
    figures = tracer.finish_op(1.0)
    assert figures["stats.t_test_calls"] == 2
    assert figures["stats.pearson_s"] == 0.0
    assert figures["mcda.consistency_s"] > 0
    assert tracer.spans == []


def test_compare_tolerance():
    assert checks.compare({"x": 1.0, "config_digest": "a"}, {"x": 1.0 + 1e-7}) == []
    assert checks.compare({"x": 1.0}, {"x": 1.001}) != []
    assert checks.compare([1, "a", True], [1, "a", True]) == []
    assert checks.compare([True], [1]) != []


def test_reference_arithmetic_reproduces_seed_reports():
    expected = checks.panel_reference(SAMPLE / "config.json")
    assert checks.compare_sets(BENCH / "reference" / "sample", expected) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
