import csv
import errno
import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from equimine import io, pipeline
from equimine.cli import REPORT, SUBCOMMANDS, main
from equimine.data import sample_dir, sample_path
from equimine.errors import PipelineError

from conftest import REPORT_FILES, cli_flags, run_cli


def test_weights_command(tmp_path):
    code, output = run_cli(["weights", "--pairwise", str(sample_path("pairwise.csv")),
                            "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "weights.json").read_text())
    assert set(payload["methods"]) == {"arithmetic-mean", "geometric-mean", "eigenvalue"}
    for method, weights in payload["methods"].items():
        assert abs(sum(weights) - 1.0) < 1e-5


def test_consistency_command(tmp_path):
    code, output = run_cli(["consistency", "--pairwise", str(sample_path("pairwise.csv")),
                            "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "consistency.json").read_text())
    assert payload["passes"] is True
    assert payload["cr"] < 0.1


def test_topsis_command_on_asteroids(tmp_path):
    code, output = run_cli(["topsis", "--decision", str(sample_path("asteroids.csv")),
                            "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "topsis.json").read_text())
    assert payload["ranking"][0] == "Anteros"  # dominant value and profit
    csv_lines = (tmp_path / "topsis.csv").read_text().splitlines()
    assert csv_lines[0] == "label,d_plus,d_minus,s,s_normalized,rank"
    assert len(csv_lines) == 5


def test_equity_command(tmp_path):
    code, output = run_cli(["equity", "--indicators", str(sample_path("indicators.csv")),
                            "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "equity.json").read_text())
    assert payload["global_equity_index"] >= 0
    assert len(payload["scores"]) == 8


def test_simulate_command(tmp_path):
    code, output = run_cli(["simulate", "--scenario", str(sample_path("scenario.json")),
                            "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "mining.json").read_text())
    assert payload["income"]["cumulative"] > 0
    assert payload["profit"]["cumulative"] == pytest.approx(
        payload["income"]["cumulative"] - 5e12, rel=1e-6)


def test_simulate_asteroid_scenario_full_horizon(tmp_path):
    code, output = run_cli(["simulate", "--scenario", str(sample_path("anteros.json")),
                            "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "mining.json").read_text())
    # full horizon recovers the whole valuation; profit nets out the cost
    assert payload["income"]["cumulative"] == pytest.approx(5.57e12, rel=1e-6)
    assert payload["profit"]["cumulative"] == pytest.approx(1.25e12, rel=1e-5)
    assert payload["window"]["t2"] is None  # infinite horizon renders as null


@pytest.mark.parametrize("scenario", [
    {"dof": 10, "location": 60, "scale": 0.1, "t1": 0, "t2": 100},
    {"location": 100, "scale": 0.1},
    {"dof": 5, "location": 1000, "scale": 0.01, "t1": 0, "t2": 2000},
], ids=["peak-at-60", "peak-at-100", "peak-at-1000"])
def test_simulate_narrow_peak_far_from_zero(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, output = run_cli(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "mining.json").read_text())
    assert payload["positive_mass"] == 1.0
    assert payload["income"]["cumulative"] == 7e13


@pytest.mark.parametrize("dof", [1e20, 1e300])
def test_simulate_large_dof_reaches_the_normal_limit(tmp_path, dof):
    # peak 3 scales right of t = 0, so the positive mass tends to Phi(3)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"dof": dof, "location": 15, "scale": 5}))
    code, output = run_cli(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "mining.json").read_text())
    assert payload["positive_mass"] == pytest.approx(0.5 * math.erfc(-3 / math.sqrt(2)), rel=1e-6)
    assert payload["income"]["cumulative"] == 7e13


def test_cli_import_loads_no_scipy():
    # nor click, which the CLI does not use, nor difflib, which only an unknown JSON
    # field's error message needs, nor fractions (and the decimal it loads), which
    # parse_ratio does without
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = ("import sys, equimine.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'click', 'difflib', 'fractions', 'decimal')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


def test_allocate_command(tmp_path):
    code, output = run_cli([
        "allocate", "--indicators", str(sample_path("indicators.csv")),
        "--gdp", str(sample_path("gdp.csv")), "--scenario", str(sample_path("scenario.json")),
        "--bottom-count", "2", "--out", str(tmp_path),
    ])
    assert code == 0, output
    payload = json.loads((tmp_path / "allocation.json").read_text())
    by_country = {s["country"]: s for s in payload["shares"]}
    assert by_country["Elbonia"]["gamma"] == 1.2  # lowest GDP
    assert by_country["Borduria"]["gamma"] == 1.2  # second lowest
    assert by_country["Arcadia"]["gamma"] == 1.0
    total = sum(s["conserved_share"] for s in payload["shares"])
    assert total == pytest.approx(payload["total_profit"], rel=1e-5)


def test_correlate_command(tmp_path):
    code, output = run_cli(["correlate", "--indicators", str(sample_path("indicators.csv")),
                            "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "correlation.json").read_text())
    assert payload["n"] == 40
    assert len(payload["indicators"]) == 7
    for entry in payload["indicators"]:
        assert -1 <= entry["r"] <= 1
        assert entry["strength"] in ("strong", "moderate", "weak", "negligible")


def test_sensitivity_command(tmp_path):
    fast_train = tmp_path / "train.json"
    fast_train.write_text('{"learning_rate": 0.5, "epochs": 300, "seed": 0, '
                          '"layer_sizes": [7, 8, 1]}')
    code, output = run_cli(["sensitivity",
                            "--indicators", str(sample_path("indicators.csv")),
                            "--train", str(fast_train), "--out", str(tmp_path)])
    assert code == 0, output
    payload = json.loads((tmp_path / "sensitivity.json").read_text())
    assert len(payload["sensitivities"]) == 7
    assert payload["variation_band"] == 0.07
    assert isinstance(payload["within_band"], bool)
    lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "indicator,value"
    assert len(lines) == 8


def test_report_full_pipeline(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    code, output = run_cli(["report", "--config", str(sample_path("config.json")),
                            "--out", str(out)])
    assert code == 0, output
    # the reports and what was there before: no staging directory is left behind
    assert {p.name for p in out.iterdir()} == {*REPORT_FILES, "notes.txt"}
    assert (out / "notes.txt").read_text() == "kept\n"
    expected = {"weights.json", "consistency.json", "equity.json", "topsis.json",
                "mining.json", "allocation.json", "correlation.json", "sensitivity.csv"}
    equity_payload = json.loads((out / "equity.json").read_text())
    ge = equity_payload["global_equity_index"]
    assert ge is not None and np.isfinite(ge) and ge >= 0
    # every JSON report embeds the same config digest
    digests = set()
    for name in expected - {"sensitivity.csv"}:
        digests.add(json.loads((out / name).read_text())["config_digest"])
    assert len(digests) == 1


def test_main_takes_the_benchmark_workers_call_form(tmp_path, capsys):
    # perfbench/worker.py runs `report` as main(args=..., prog_name=..., standalone_mode=False)
    config, out = str(sample_path("config.json")), tmp_path / "out"
    args = ["report", "--config", config, "--out", str(out)]
    assert main(args=args, prog_name="equimine", standalone_mode=False) == 0
    assert capsys.readouterr().out == f"wrote {len(REPORT_FILES)} artifacts to {out}\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(REPORT_FILES)
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as stop:
        main(args=["report", "--config", missing, "--out", str(tmp_path / "again")],
             prog_name="equimine", standalone_mode=False)
    assert stop.value.code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["stage"] == "config" and missing in error["message"]


def test_report_seed_override_changes_sensitivity_only(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, seed in ((out_a, "1"), (out_b, "2")):
        code, output = run_cli(["report", "--config", str(sample_path("config.json")),
                                "--out", str(out), "--seed", seed])
        assert code == 0, output
    assert (out_a / "sensitivity.csv").read_text() != (out_b / "sensitivity.csv").read_text()
    # seed participates in the digest, so reports differ only by that field
    a = json.loads((out_a / "equity.json").read_text())
    b = json.loads((out_b / "equity.json").read_text())
    assert a["scores"] == b["scores"]


def test_report_fails_on_inconsistent_matrix(tmp_path):
    sample = sample_dir()
    for name in ("indicators.csv", "gdp.csv", "scenario.json", "train.json"):
        shutil.copy(sample / name, tmp_path / name)
    # strongly intransitive judgments: a >> b >> c but c >> a
    (tmp_path / "pairwise.csv").write_text(
        ",A,B,C\nA,1,9,1/9\nB,1/9,1,9\nC,9,1/9,1\n")
    (tmp_path / "config.json").write_text(json.dumps({
        "indicators": "indicators.csv",
        "pairwise": "pairwise.csv",
        "gdp": "gdp.csv",
        "scenario": "scenario.json",
        "train": "train.json",
        "poverty": {"bottom_count": 2, "multiplier": 1.2},
    }))
    out = tmp_path / "out"
    out.mkdir()
    code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                            "--out", str(out)])
    assert code == 1
    payload = json.loads(output)
    assert payload["error"]["stage"] == "consistency"
    assert payload["error"]["cr"] >= 0.1
    # a CR failure writes no report, consistency.json included
    assert list(out.iterdir()) == []


def test_report_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code, output = run_cli(["report", "--config", str(sample_path("config.json")),
                                "--out", str(out)])
        assert code == 0, output
    for path_a in out_a.iterdir():
        assert path_a.read_bytes() == (out_b / path_a.name).read_bytes(), path_a.name


def test_missing_input_fails_cleanly(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({
        "indicators": "nope.csv", "pairwise": "nope.csv", "gdp": "nope.csv",
        "scenario": "nope.json", "train": "nope.json",
    }))
    code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                            "--out", str(tmp_path / "out")])
    assert code == 1
    payload = json.loads(output)
    assert "not found" in payload["error"]["message"]


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sample"
SAMPLE_TOPSIS_CSV = Path(__file__).resolve().parent / "fixtures" / "sample_topsis.csv"
PAIRWISE = str(sample_path("pairwise.csv"))
INDICATORS = str(sample_path("indicators.csv"))
SCENARIO = str(sample_path("scenario.json"))


def sample_config(**fields) -> str:
    """The sample run config as JSON text, its input paths made absolute and `fields`
    set over it."""
    config = json.loads(sample_path("config.json").read_text())
    for key in ("indicators", "pairwise", "gdp", "scenario", "train"):
        config[key] = str(sample_path(config[key]))
    return json.dumps({**config, **fields})


@pytest.fixture(scope="module")
def sample_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    code, output = run_cli(["report", "--config", str(sample_path("config.json")),
                            "--out", str(out)])
    assert code == 0, output
    return out


def _same_report(actual, expected):
    """JSON reports compare as parsed objects minus config_digest; CSVs byte for byte."""
    if expected.suffix == ".json":
        a, b = json.loads(actual.read_text()), json.loads(expected.read_text())
        a.pop("config_digest")
        b.pop("config_digest")
        return a == b
    return actual.read_bytes() == expected.read_bytes()


def test_report_matches_seed_reference(sample_report):
    names = sorted(p.name for p in REFERENCE.iterdir())
    assert len(names) == 10
    for name in names:
        assert _same_report(sample_report / name, REFERENCE / name), name


def test_report_topsis_csv_matches_its_fixture(sample_report):
    # the seed reference set holds no topsis.csv, so the sample's is pinned here
    assert (sample_report / "topsis.csv").read_bytes() == SAMPLE_TOPSIS_CSV.read_bytes()


STAGES = ["consistency", "weights", "equity", "topsis", "mining", "allocation", "correlation",
          "sensitivity"]


def test_info_log_has_one_end_line_per_stage(tmp_path, sample_report):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "EQUIMINE_LOG": "INFO"}
    result = subprocess.run([sys.executable, "-m", "equimine.cli", "report", "--config",
                             str(sample_path("config.json")), "--out", str(tmp_path)],
                            env=env, capture_output=True, text=True, check=True)
    ends = [m.group(1) for m in map(
        re.compile(r"INFO equimine\.pipeline: stage (\w+) finished in \d+\.\d{3} s").fullmatch,
        result.stderr.splitlines()) if m]
    assert ends == ["config"] + STAGES
    # logging leaves the report bytes alone
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in sample_report.iterdir())
    for report in sample_report.iterdir():
        assert (tmp_path / report.name).read_bytes() == report.read_bytes(), report.name


def test_log_setting_that_is_no_level_means_warning(tmp_path):
    # logging.BASIC_FORMAT is a logging attribute but a format string, not a level
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "EQUIMINE_LOG": "basic_format"}
    result = subprocess.run([sys.executable, "-m", "equimine.cli", "weights", "--pairwise",
                             PAIRWISE, "--out", str(tmp_path)], env=env, capture_output=True,
                            text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert [p.name for p in tmp_path.iterdir()] == ["weights.json"]


def test_stage_failure_is_logged_at_error_naming_the_stage(tmp_path, caplog):
    (tmp_path / "train.json").write_text('{"epochs": true}')
    with caplog.at_level(logging.INFO, logger="equimine.pipeline"):
        code, output = run_cli(["sensitivity", "--indicators", INDICATORS, "--train",
                                str(tmp_path / "train.json"), "--out", str(tmp_path)])
    assert code == 1
    logged = [(r.levelname, r.getMessage()) for r in caplog.records]
    assert logged[0] == ("INFO", "stage sensitivity started")
    assert logged[1][0] == "ERROR" and logged[1][1].startswith("stage sensitivity failed: ")
    assert "epochs" in logged[1][1] and len(logged) == 2


@pytest.mark.parametrize("args, files", [
    (["weights", "--pairwise", PAIRWISE], ["weights.json"]),
    (["consistency", "--pairwise", PAIRWISE], ["consistency.json"]),
    (["equity", "--indicators", INDICATORS, "--pairwise", PAIRWISE], ["equity.json"]),
    (["simulate", "--scenario", SCENARIO], ["mining.json"]),
    (["allocate", "--indicators", INDICATORS, "--gdp", str(sample_path("gdp.csv")),
      "--scenario", SCENARIO, "--pairwise", PAIRWISE, "--bottom-count", "2"],
     ["allocation.json"]),
    (["correlate", "--indicators", INDICATORS, "--pairwise", PAIRWISE], ["correlation.json"]),
    (["sensitivity", "--indicators", INDICATORS, "--train", str(sample_path("train.json")),
      "--pairwise", PAIRWISE], ["perturbation.csv", "sensitivity.csv", "sensitivity.json"]),
], ids=["weights", "consistency", "equity", "simulate", "allocate", "correlate", "sensitivity"])
def test_subcommand_writes_the_report_payload(tmp_path, sample_report, args, files):
    code, output = run_cli(args + ["--out", str(tmp_path)])
    assert code == 0, output
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        assert _same_report(tmp_path / name, sample_report / name), name


def test_income_mode_precedence(tmp_path):
    """The --income-mode flag, else the run config's income_mode, else cumulative."""
    scenario = json.loads(sample_path("scenario.json").read_text())
    # up to the peak, so the paper-literal rate difference gives a positive profit
    scenario.update(t2=15.0, cost=0.0)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    no_mode = json.loads(sample_config(scenario=str(scenario_path)))
    del no_mode["income_mode"]
    (tmp_path / "no-mode.json").write_text(json.dumps(no_mode))
    (tmp_path / "literal.json").write_text(json.dumps({**no_mode,
                                                       "income_mode": "paper-literal"}))
    allocate = ["allocate", "--indicators", INDICATORS, "--gdp", str(sample_path("gdp.csv")),
                "--scenario", str(scenario_path), "--pairwise", PAIRWISE, "--bottom-count", "2"]
    runs = {
        "default": ["report", "--config", str(tmp_path / "no-mode.json")],
        "config": ["report", "--config", str(tmp_path / "literal.json")],
        "flag": ["report", "--config", str(tmp_path / "literal.json"),
                 "--income-mode", "cumulative"],
        "allocate": allocate,
        "allocate-flag": allocate + ["--income-mode", "paper-literal"],
    }
    profits = {}
    for name, args in runs.items():
        code, output = run_cli(args + ["--out", str(tmp_path / name)])
        assert code == 0, output
        allocation_report = json.loads((tmp_path / name / "allocation.json").read_text())
        profits[name] = allocation_report["total_profit"]
    mining_report = json.loads((tmp_path / "config" / "mining.json").read_text())
    assert mining_report["selected_mode"] == "paper-literal"
    literal, cumulative = (mining_report["profit"][m] for m in ("paper-literal", "cumulative"))
    assert literal != cumulative
    assert profits == {"default": cumulative, "config": literal, "flag": cumulative,
                       "allocate": cumulative, "allocate-flag": literal}


@pytest.mark.parametrize("command, stage, name, field", [
    ("report", "config", "scenario", "mode"), ("simulate", "mining", "scenario", "mode"),
    ("report", "config", "run config", "seed")])
def test_scenario_mode_and_run_config_seed_are_unknown_fields(tmp_path, command, stage, name,
                                                              field):
    # the income mode has one home, the run config (or --income-mode), and the seed one,
    # the train config (or --seed)
    scenario = json.loads(sample_path("scenario.json").read_text())
    (tmp_path / "scenario.json").write_text(json.dumps({**scenario, "mode": "cumulative"}))
    fields = {"scenario": str(tmp_path / "scenario.json")} if name == "scenario" else {"seed": 0}
    (tmp_path / "config.json").write_text(sample_config(**fields))
    args = (["report", "--config", str(tmp_path / "config.json")] if command == "report" else
            ["simulate", "--scenario", str(tmp_path / "scenario.json")])
    code, output = run_cli(args + ["--out", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(output)["error"] == {
        "stage": stage, "message": f"{name} has an unknown field {field!r}"}
    assert not (tmp_path / "out").exists()


def test_setting_flag_given_at_its_default_leaves_the_digest_as_it_is(tmp_path):
    # an absent flag means RunConfig's default, so naming that default changes no byte
    allocate = ["allocate", "--indicators", INDICATORS, "--gdp", str(sample_path("gdp.csv")),
                "--scenario", SCENARIO, "--bottom-count", "2"]
    defaults = ["--income-mode", "cumulative", "--alloc-basis", "equity", "--multiplier", "1.2"]
    for name, args in [("absent", allocate), ("given", allocate + defaults)]:
        code, output = run_cli(args + ["--out", str(tmp_path / name)])
        assert code == 0, output
    assert ((tmp_path / "absent" / "allocation.json").read_bytes()
            == (tmp_path / "given" / "allocation.json").read_bytes())


@pytest.mark.parametrize("alloc_basis", ["equity", "topsis"])
@pytest.mark.parametrize("alloc_mode", ["conserve", "paper-literal"])
@pytest.mark.parametrize("income_mode", ["cumulative", "paper-literal"])
def test_every_mode_combination_reports_on_the_sample(tmp_path, income_mode, alloc_mode,
                                                      alloc_basis):
    # the sample window [0, 30] is symmetric about the curve's peak, so the
    # paper-literal income is 0 and its profit is minus the cost: a loss
    # allocates nothing, while mining.json keeps the negative profit. The
    # allocation mode has no flag: only a run config sets it.
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(sample_config(alloc_mode=alloc_mode))
    code, output = run_cli(["report", "--config", str(config), "--out", str(out),
                            "--income-mode", income_mode, "--alloc-basis", alloc_basis])
    assert code == 0, output
    profit = json.loads((out / "mining.json").read_text())["profit"][income_mode]
    assert (profit < 0) == (income_mode == "paper-literal")
    allocation_report = json.loads((out / "allocation.json").read_text())
    assert allocation_report["mode"] == alloc_mode
    assert allocation_report["total_profit"] == max(profit, 0.0)
    shares = [s[k] for s in allocation_report["shares"] for k in ("raw_share", "conserved_share")]
    assert all(v == 0 for v in shares) == (profit < 0)


@pytest.mark.parametrize("args", [
    ["report", "--config", str(sample_path("config.json")), "--alloc-mode", "conserve"],
    ["allocate", "--indicators", INDICATORS, "--gdp", str(sample_path("gdp.csv")), "--scenario",
     SCENARIO, "--bottom-count", "2", "--alloc-mode", "paper-literal"],
    ["simulate", "--scenario", SCENARIO, "--income-mode", "cumulative"],
], ids=["report-alloc-mode", "allocate-alloc-mode", "simulate-income-mode"])
def test_mode_flag_of_a_command_whose_numbers_it_leaves_alone_is_a_usage_error(tmp_path, args):
    # both share columns, and both income readings, are reported side by side
    code, output = run_cli(args + ["--out", str(tmp_path / "out")])
    assert code == 2 and "unrecognized arguments" in output
    assert not (tmp_path / "out").exists()


# Two values of each setting flag without choices; a flag with choices takes its first two.
SETTING_VALUES = {"--bottom-count": ("2", "3"), "--multiplier": ("1.2", "1.5"),
                  "--seed": ("0", "1")}
# Each command's setting flags as the CLI declares them: the flags that set a RunConfig field.
COMMAND_SETTINGS = [
    (command, flag, kwargs.get("choices"))
    for command, (_, _, *options) in {**SUBCOMMANDS, "report": (None, *REPORT)}.items()
    for flag, kwargs in options
    if flag[2:].replace("-", "_") in {f.name for f in fields(pipeline.RunConfig)}]


def _numbers(value) -> list:
    """Every number a parsed JSON value holds, depth first; strings (labels, modes,
    config_digest) and booleans are left out."""
    if isinstance(value, (dict, list)):
        return [n for v in (value.values() if isinstance(value, dict) else value)
                for n in _numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _report_numbers(out: Path) -> dict:
    """{report name: its numbers}: a JSON report's, and a CSV report's number cells."""
    return {path.name: _numbers(json.loads(path.read_text())) if path.suffix == ".json" else
            [float(cell) for row in csv.reader(path.read_text().splitlines()) for cell in row
             if re.match(r"-?\d", cell)] for path in out.iterdir()}


@pytest.mark.parametrize("command, flag, choices", COMMAND_SETTINGS,
                         ids=[f"{command}{flag}" for command, flag, _ in COMMAND_SETTINGS])
def test_every_setting_flag_changes_a_number(tmp_path, command, flag, choices):
    # a flag that only relabelled a report would be a setting to learn for nothing. The
    # sample's inputs, but not the asteroid decision matrix, whose alternatives are no
    # countries to split by; `allocate` takes the sample run config's bottom_count
    inputs = {k: v for k, v in INPUT_FLAGS[command][1].items() if k != "--decision"}
    numbers = []
    for value in choices[:2] if choices else SETTING_VALUES[flag]:
        args = {**inputs, **({"--bottom-count": "2"} if command == "allocate" else {}), flag: value}
        code, output = run_cli([command, *(x for item in args.items() for x in item),
                                "--out", str(tmp_path / value)])
        assert code == 0, output
        numbers.append(_report_numbers(tmp_path / value))
    assert numbers[0] != numbers[1]


def _decision(path: Path, columns: list) -> Path:
    """A decision matrix of alternatives x, y and z: columns are (header, 3 values)."""
    rows = [["alt", *(header for header, _ in columns)]] + [
        [alt, *(str(values[i]) for _, values in columns)] for i, alt in enumerate("xyz")]
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("column", [("b:cost", (3, 3, 3)), ("b:benefit", (0, 0, 0)),
                                    ("b:mid=3", (5, 5, 5))], ids=["cost", "zero-benefit", "mid"])
def test_topsis_constant_column_of_any_kind_changes_no_score(tmp_path, column):
    # forwarding would turn each into an all-zero column, which normalize refuses
    base = [("a:benefit", (1, 2, 4)), ("c:cost", (7, 1, 5))]
    for name, columns in [("base", base), ("constant", base + [column])]:
        code, output = run_cli(["topsis", "--decision", str(_decision(tmp_path / name, columns)),
                                "--out", str(tmp_path / f"{name}-out")])
        assert code == 0, output
    assert ((tmp_path / "constant-out" / "topsis.csv").read_bytes()
            == (tmp_path / "base-out" / "topsis.csv").read_bytes())


def test_report_ranks_countries_whose_latest_indicator_is_zero_everywhere(tmp_path):
    # the sample config has no decision, so report ranks the latest-year indicators
    header, *rows = sample_path("indicators.csv").read_text().splitlines()
    latest, ma = max(row.split(",")[1] for row in rows), header.split(",").index("ma")
    cells = [row.split(",") for row in rows]
    for row in cells:
        row[ma] = "0" if row[1] == latest else row[ma]
    (tmp_path / "indicators.csv").write_text("\n".join([header, *map(",".join, cells)]) + "\n")
    (tmp_path / "config.json").write_text(sample_config(indicators=str(tmp_path
                                                                      / "indicators.csv")))
    code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                            "--out", str(tmp_path / "out")])
    assert code == 0, output
    assert len(json.loads((tmp_path / "out" / "topsis.json").read_text())["ranking"]) == 8


def _pairwise(path: Path, order, labels=str) -> Path:
    """The sample comparison matrix with its criteria in `order` (rows and columns moved
    together) and each label passed through `labels`."""
    rows = [line.split(",") for line in sample_path("pairwise.csv").read_text().splitlines()]
    index = [0, *(i + 1 for i in order)]
    path.write_text("".join(",".join(labels(rows[i][j]) if 0 in (i, j) else rows[i][j]
                                     for j in index) + "\n" for i in index))
    return path


def test_pairwise_criteria_must_name_the_indicators_in_order(tmp_path, sample_report):
    # weights fall on the indicators by position: IDG listed before EI would weigh ei as idg
    swapped = str(_pairwise(tmp_path / "swapped.csv", [1, 0, 2, 3, 4, 5, 6]))
    message = ("the comparison matrix's criteria ['IDG', 'EI', 'CEA', 'MA', 'HR', 'ER', 'SA'] "
               "must be the indicators ['ei', 'idg', 'cea', 'ma', 'hr', 'er', 'sa'], in that order")
    (tmp_path / "config.json").write_text(sample_config(pairwise=swapped))
    for args, stage in [(["report", "--config", str(tmp_path / "config.json")], "equity"),
                        (["correlate", "--indicators", INDICATORS, "--pairwise", swapped],
                         "correlation"),
                        (["allocate", "--indicators", INDICATORS, "--gdp",
                          str(sample_path("gdp.csv")), "--scenario", SCENARIO, "--pairwise",
                          swapped, "--bottom-count", "2", "--alloc-basis", "topsis"],
                         "allocation")]:
        code, output = run_cli(args + ["--out", str(tmp_path / "out")])
        assert (code, json.loads(output)["error"]) == (1, {"stage": stage, "message": message})
        assert not (tmp_path / "out").exists()
    for command in ("weights", "consistency"):  # any labels: these weigh no indicator
        code, output = run_cli([command, "--pairwise", swapped, "--out", str(tmp_path / command)])
        assert code == 0, output
    # lowercase labels in indicator order weigh the indicators as the sample's do
    lower = str(_pairwise(tmp_path / "lower.csv", range(7), labels=str.lower))
    code, output = run_cli(["equity", "--indicators", INDICATORS, "--pairwise", lower,
                            "--out", str(tmp_path / "lower")])
    assert code == 0, output
    assert _same_report(tmp_path / "lower" / "equity.json", sample_report / "equity.json")


def test_topsis_subcommand_matches_report_with_decision(tmp_path):
    decision = str(sample_path("asteroids.csv"))
    (tmp_path / "config.json").write_text(sample_config(decision=decision))
    for args in (["report", "--config", str(tmp_path / "config.json")],
                 ["topsis", "--decision", decision]):
        code, output = run_cli(args + ["--out", str(tmp_path / args[0])])
        assert code == 0, output
    assert _same_report(tmp_path / "topsis" / "topsis.json", tmp_path / "report" / "topsis.json")
    assert sorted(p.name for p in (tmp_path / "topsis").iterdir()) == ["topsis.csv", "topsis.json"]


@pytest.mark.parametrize("args, text, stage", [
    (["simulate", "--scenario"], '{"t2":"soon"}', "mining"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], '{"layer_sizes": [7,"x",1]}',
     "sensitivity"),
    (["report", "--config"], '{"indicators": "a.csv",', "config"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], '{"seed": -1}', "sensitivity"),
    (["sensitivity", "--indicators", INDICATORS, "--train"],
     '{"learning_rate": 1e308, "epochs": 3}', "sensitivity"),
    (["simulate", "--scenario"], '{"dof": 1e308}', "mining"),
    (["simulate", "--scenario"], '{"dof": 0.01}', "mining"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], '{"epochs": 2.5}', "sensitivity"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], '{"epochs": true}', "sensitivity"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], '{"layer_sizes": [7, 16.9, 1]}',
     "sensitivity"),
    (["simulate", "--scenario"], '{"dof": true}', "mining"),
    (["simulate", "--scenario"], '{"cost": false}', "mining"),
    (["simulate", "--scenario"], '{"dof": "5"}', "mining"),
    (["simulate", "--scenario"], '{"total_value": "7_0e12"}', "mining"),
    (["simulate", "--scenario"], '{"scale": 1' + "0" * 400 + '}', "mining"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], '{"learning_rate": true}',
     "sensitivity"),
    (["report", "--config"], sample_config(poverty={"bottom_count": 2, "multiplier": True}),
     "config"),
], ids=["scenario", "train-config", "run-config", "negative-seed", "saturated-network",
        "huge-dof", "tiny-dof", "fractional-epochs", "boolean-epochs", "fractional-width",
        "boolean-dof", "boolean-cost", "string-dof", "string-total-value",
        "integer-past-the-float-range", "boolean-learning-rate", "boolean-multiplier"])
def test_malformed_json_input_prints_error_json(tmp_path, args, text, stage):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, output = run_cli(args + [str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == stage


@pytest.mark.parametrize("args, content, stage", [
    (["weights", "--pairwise"], b",A,B\nA,1,2\nB,1/2,1\nC,1,1\n", "weights"),
    (["equity", "--indicators"],
     b"country,year,ei,idg,cea,ma,hr,er,sa\nA\xffland,2020,1,1,1,1,1,1,1\n", "equity"),
    (["topsis", "--decision"], b"name,x:benefit\nA," + b"9" * (128 * 1024 + 1) + b"\n", "topsis"),
    (["topsis", "--decision"], b"alt,a:benefit,b:mid=abc\nx,1,2\ny,4,5\n", "topsis"),
    (["weights", "--pairwise"], b",A,B\nA,1,1e400\nB,1,1\n", "weights"),
    (["correlate", "--indicators"],
     sample_path("indicators.csv").read_bytes().replace(b"0.6961", b"1e308", 1), "correlation"),
    (["sensitivity", "--train", str(sample_path("train.json")), "--indicators"],
     sample_path("indicators.csv").read_bytes().replace(b"0.6961", b"1e308", 1), "sensitivity"),
    (["topsis", "--decision"], b"alt,a:benefit,b:benefit\nx,1e200,1\ny,2e200,2\n", "topsis"),
    (["weights", "--pairwise"], b",a,a\na,1,1\na,1,1\n", "weights"),
    (["topsis", "--decision"], b"alt,a:benefit\nx,1\ny,2\nx,3\n", "topsis"),
], ids=["pairwise-row-count", "not-utf8", "oversized-cell", "bad-mid-optimum",
        "overflowing-ratio", "overflowing-indicator", "overflowing-indicator-sensitivity",
        "overflowing-topsis-norm", "repeated-criterion", "repeated-alternative"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_csv_input_prints_error_json(tmp_path, args, content, stage):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    code, output = run_cli(args + [str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == stage


@pytest.mark.parametrize("args, stage", [
    (["equity", "--indicators"], "equity"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], "sensitivity"),
    (["report", "--config"], "config"),
], ids=["equity-indicators", "sensitivity-train", "report-config"])
def test_directory_as_input_file_prints_error_json(tmp_path, args, stage):
    code, output = run_cli(args + [str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == stage and str(tmp_path) in error["message"]


# Each subcommand's stage and a valid value for every input flag it takes.
INPUT_FLAGS = {
    "weights": ("weights", {"--pairwise": PAIRWISE}),
    "consistency": ("consistency", {"--pairwise": PAIRWISE}),
    "topsis": ("topsis", {"--decision": str(sample_path("asteroids.csv"))}),
    "equity": ("equity", {"--indicators": INDICATORS, "--pairwise": PAIRWISE}),
    "simulate": ("mining", {"--scenario": SCENARIO}),
    "allocate": ("allocation", {"--indicators": INDICATORS, "--gdp": str(sample_path("gdp.csv")),
                                "--scenario": SCENARIO, "--pairwise": PAIRWISE,
                                "--decision": str(sample_path("asteroids.csv"))}),
    "correlate": ("correlation", {"--indicators": INDICATORS, "--pairwise": PAIRWISE}),
    "sensitivity": ("sensitivity", {"--indicators": INDICATORS,
                                    "--train": str(sample_path("train.json")),
                                    "--pairwise": PAIRWISE}),
    "report": ("config", {"--config": str(sample_path("config.json"))}),
}
MISSING_INPUTS = [(command, flag) for command, (_, flags) in INPUT_FLAGS.items() for flag in flags]


def test_every_input_flag_has_a_missing_input_case():
    # an input flag is --config, or --{name} for an input name of pipeline.INPUT_FILES
    inputs = {"--config", *(f"--{name}" for name in pipeline.INPUT_FILES)}
    flags = {(command, flag) for command in [*SUBCOMMANDS, "report"]
             for flag in cli_flags(command) if flag in inputs}
    assert flags == set(MISSING_INPUTS)


# What a flag's --help entry holds besides its description: the metavar (PATH, N or M) or
# the choice list.
HELP_MARKS = re.compile(r"^(?:[A-Z]+|\{[^}]*\})(?= |$)")


@pytest.mark.parametrize("command", [*SUBCOMMANDS, "report"])
def test_every_flag_says_what_it_does(command):
    assert [flag for flag, entry in cli_flags(command).items()
            if not HELP_MARKS.sub("", entry).strip()] == []


@pytest.mark.parametrize("command, flag", MISSING_INPUTS,
                         ids=[f"{command}{flag}" for command, flag in MISSING_INPUTS])
def test_missing_input_file_prints_error_json(tmp_path, command, flag):
    # io reports the path it cannot read, in the stage reading it; never a usage error
    stage, flags = INPUT_FLAGS[command]
    missing = str(tmp_path / "missing.file")
    args = [part for option, value in {**flags, flag: missing}.items() for part in (option, value)]
    code, output = run_cli([command, *args, "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == stage and missing in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, flags, field", [
    ({"poverty": {"bottom_count": 0, "multiplier": 1.2}}, [], "bottom_count"),
    ({"poverty": {"bottom_count": 2, "multiplier": 0.5}}, [], "multiplier"),
    ({}, ["--seed", "-1"], "seed"),
    ({"poverty": {"bottom_count": 99, "multiplier": 1.2}}, [], "bottom_count"),
    ({"poverty": {"bottom": 3}}, [], "unknown field 'bottom'; did you mean 'bottom_count'?"),
    ({"gdp": "gd\u0000p.csv"}, [], "p.csv: embedded null byte"),
], ids=["zero-bottom-count", "multiplier-below-one", "negative-seed-flag",
        "bottom-count-past-the-gdp-table", "misspelled-bottom-count", "nul-byte-in-a-path"])
def test_bad_run_setting_stops_report_in_config(tmp_path, caplog, monkeypatch, fields,
                                                flags, field):
    monkeypatch.setenv("EQUIMINE_LOG", "INFO")
    (tmp_path / "config.json").write_text(sample_config(**fields))
    with caplog.at_level(logging.INFO, logger="equimine.pipeline"):
        code, output = run_cli(["report", "--config", str(tmp_path / "config.json"), *flags,
                                "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == "config" and field in error["message"]
    started = [r.getMessage() for r in caplog.records if r.getMessage().endswith(" started")]
    assert started == ["stage config started"]


# A misspelled key in each input a subcommand reads from a JSON file, and its error message.
MISSPELLED = {
    "scenario": ('{"doff": 3}', "scenario has an unknown field 'doff'; did you mean 'dof'?"),
    "train": ('{"epoch": 10}', "train config has an unknown field 'epoch'; did you mean 'epochs'?"),
}


@pytest.mark.parametrize("name, command", [("scenario", "report"), ("scenario", "simulate"),
                                           ("train", "report"), ("train", "sensitivity")])
def test_misspelled_json_key_prints_error_json_naming_the_closest_key(tmp_path, name, command):
    # a key the input's field table lacks never falls back to a default: report stops in
    # config, the subcommand in the stage reading the file
    text, message = MISSPELLED[name]
    (tmp_path / "bad.json").write_text(text)
    (tmp_path / "config.json").write_text(sample_config(**{name: str(tmp_path / "bad.json")}))
    stage, flags = INPUT_FLAGS[command]
    given = {"--config": str(tmp_path / "config.json")} if command == "report" else {
        f"--{name}": str(tmp_path / "bad.json")}
    args = [part for option, value in {**flags, **given}.items() for part in (option, value)]
    code, output = run_cli([command, *args, "--out", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(output)["error"] == {"stage": stage, "message": message}
    assert not (tmp_path / "out").exists()


def test_gdp_table_missing_a_country_stops_report_in_config(tmp_path, caplog, monkeypatch):
    # report applies the poverty policy to the GDP table in config, before any stage
    # computes; allocate does so in its own stage
    gdp = tmp_path / "gdp.csv"
    gdp.write_text("".join(sample_path("gdp.csv").read_text().splitlines(keepends=True)[:-1]))
    (tmp_path / "config.json").write_text(sample_config(gdp=str(gdp)))
    monkeypatch.setenv("EQUIMINE_LOG", "INFO")
    with caplog.at_level(logging.INFO, logger="equimine.pipeline"):
        code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                                "--out", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(output)["error"] == {
        "stage": "config", "message": "GDP table countries do not match the indicator table"}
    assert {r.getMessage().split()[1] for r in caplog.records} == {"config"}
    assert not (tmp_path / "out").exists()
    code, output = run_cli(["allocate", "--indicators", INDICATORS, "--gdp", str(gdp),
                            "--scenario", SCENARIO, "--bottom-count", "2",
                            "--out", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(output)["error"]["stage"] == "allocation"


def test_allocate_policy_error_keeps_stage_allocation(tmp_path):
    # the subcommand builds its poverty policy from its flags inside its own stage
    code, output = run_cli(["allocate", "--indicators", INDICATORS, "--gdp",
                            str(sample_path("gdp.csv")), "--scenario", SCENARIO,
                            "--bottom-count", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == "allocation" and "bottom_count" in error["message"]


# A malformed file for each input; report reads them all in stage config.
MALFORMED_INPUTS = {
    "pairwise": b",A,B\nA,1,2\nB,1/2,1\nC,1,1\n",
    "indicators": b"country,year\nA,2020\n",
    "decision": b"alt,x\nA,1\n",
    "scenario": b'{"t2": "soon"}',
    "gdp": b"country,gdp\nArcadia,x\n",
    "train": b'{"epochs": true}',
}


@pytest.mark.parametrize("name", pipeline.INPUT_FILES)
def test_malformed_input_stops_report_in_config(tmp_path, caplog, name):
    # the last input in stage order fails as early as the first: before any stage computes
    (tmp_path / "bad").write_bytes(MALFORMED_INPUTS[name])
    (tmp_path / "config.json").write_text(sample_config(**{name: str(tmp_path / "bad")}))
    with caplog.at_level(logging.INFO, logger="equimine.pipeline"):
        code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                                "--out", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(output)["error"]["stage"] == "config"
    started = [r.getMessage() for r in caplog.records if r.getMessage().endswith(" started")]
    assert started == ["stage config started"]
    assert not (tmp_path / "out").exists()


def test_panel_too_small_to_train_on_stops_report_in_config(tmp_path, caplog):
    # a valid 3-country x 1-year panel has fewer records than the sensitivity network
    # trains on; report finds that before any stage computes, the subcommand in its stage
    header, *rows = sample_path("indicators.csv").read_text().splitlines()
    rows = [row for row in rows if row.split(",")[1] == "2020"][:3]
    countries = {row.split(",")[0] for row in rows}
    gdp_header, *gdp_rows = sample_path("gdp.csv").read_text().splitlines()
    (tmp_path / "indicators.csv").write_text("\n".join([header, *rows]) + "\n")
    (tmp_path / "gdp.csv").write_text(
        "\n".join([gdp_header, *(r for r in gdp_rows if r.split(",")[0] in countries)]) + "\n")
    (tmp_path / "config.json").write_text(sample_config(indicators=str(tmp_path / "indicators.csv"),
                                                        gdp=str(tmp_path / "gdp.csv")))
    with caplog.at_level(logging.INFO, logger="equimine.pipeline"):
        code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                                "--out", str(tmp_path / "out")])
    message = "the indicator table has 3 records; the sensitivity network needs at least 10"
    assert code == 1
    assert json.loads(output)["error"] == {"stage": "config", "message": message}
    started = [r.getMessage() for r in caplog.records if r.getMessage().endswith(" started")]
    assert started == ["stage config started"]
    assert not (tmp_path / "out").exists()
    code, output = run_cli(["sensitivity", "--indicators", str(tmp_path / "indicators.csv"),
                            "--train", str(sample_path("train.json")),
                            "--out", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(output)["error"] == {"stage": "sensitivity", "message": message}


def test_run_pipeline_reads_its_inputs_in_config(tmp_path):
    # run_pipeline, given a RunConfig or a run-config path, reads the run config, applies
    # its overrides and reads every input in its own config stage
    (tmp_path / "train.json").write_bytes(MALFORMED_INPUTS["train"])
    config = pipeline.load_run_config(sample_path("config.json"))
    config.paths["train"] = tmp_path / "train.json"
    (tmp_path / "config.json").write_text(sample_config(train=str(tmp_path / "train.json")))
    for given, overrides in [(config, {}), (tmp_path / "config.json", {}),
                             (tmp_path / "missing.json", {}),
                             (sample_path("config.json"), {"alloc_basis": "nearest"}),
                             (sample_path("config.json"), {"seed": -1})]:
        with pytest.raises(PipelineError) as failed:
            pipeline.run_pipeline(given, tmp_path / "out", **overrides)
        assert failed.value.stage == "config"
    assert not (tmp_path / "out").exists()


def test_report_runs_through_run_pipeline_once(tmp_path, run_inputs, monkeypatch):
    # through the module attribute, which is what a tracer wrapping it sees
    calls = []
    run_pipeline = pipeline.run_pipeline

    def counted(*args, **kwargs):
        calls.append(args)
        return run_pipeline(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_pipeline", counted)
    code, output = run_cli(["report", "--config", str(run_inputs / "config.json"),
                            "--out", str(tmp_path / "out")])
    assert code == 0, output
    assert len(calls) == 1


def test_every_way_to_run_the_pipeline_writes_the_same_bytes(tmp_path, run_inputs):
    # a run-config path, the RunConfig read from it, and `report` with the same overrides
    path = run_inputs / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "decision": None}))
    pipeline.run_pipeline(path, tmp_path / "path", seed=3, alloc_basis="topsis")
    pipeline.run_pipeline(pipeline.load_run_config(path), tmp_path / "object", seed=3,
                          alloc_basis="topsis")
    code, output = run_cli(["report", "--config", str(path), "--seed", "3",
                            "--alloc-basis", "topsis", "--out", str(tmp_path / "cli")])
    assert code == 0, output
    written = {form: {p.name: p.read_bytes() for p in (tmp_path / form).iterdir()}
               for form in ("path", "object", "cli")}
    assert sorted(written["path"]) == sorted(REPORT_FILES)
    assert written["object"] == written["path"] and written["cli"] == written["path"]
    assert json.loads(written["path"]["allocation.json"])["basis"] == "topsis"
    assert json.loads(written["path"]["sensitivity.json"])["seed"] == 3


def test_repeated_decision_alternative_stops_report_in_config(tmp_path):
    # a second Arcadia row would otherwise overwrite the first one's TOPSIS basis
    header, *rows = sample_path("indicators.csv").read_text().splitlines()
    latest = [row.split(",") for row in rows if row.split(",")[1] == "2021"]
    decision = tmp_path / "decision.csv"
    decision.write_text("\n".join(
        ["country," + ",".join(f"{c}:benefit" for c in header.split(",")[2:])]
        + [",".join([r[0], *r[2:]]) for r in latest] + ["Arcadia,1,1,1,1,1,1,1"]) + "\n")
    (tmp_path / "config.json").write_text(sample_config(decision=str(decision)))
    code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                            "--alloc-basis", "topsis", "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == "config" and "'Arcadia' is repeated" in error["message"]
    assert not (tmp_path / "out").exists()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_run_config_digest_hashes_the_settings_and_input_bytes(tmp_path):
    # the flat settings, each input's path replaced by the sha256 of the file's bytes
    (tmp_path / "config.json").write_text(
        sample_config(poverty={"bottom_count": 3, "multiplier": 1.5}))
    config = pipeline.load_run_config(tmp_path / "config.json")
    _, sha256 = pipeline.load_inputs(config.paths)
    flat = {name: _sha256(sample_path(f"{name}.csv")) for name in ("indicators", "pairwise", "gdp")}
    flat |= {"scenario": _sha256(sample_path("scenario.json")),
             "train": _sha256(sample_path("train.json")),
             "decision": None, "income_mode": "cumulative", "alloc_mode": "conserve",
             "alloc_basis": "equity", "bottom_count": 3, "multiplier": 1.5, "seed": None}
    assert sha256 == {name: flat[name] for name in pipeline.INPUT_FILES}
    assert config.digest(sha256) == io.config_digest(flat)
    # RunConfig keeps the policy's integer bottom_count, so 3.0 hashes as 3
    assert replace(config, bottom_count=3.0).digest(sha256) == io.config_digest(flat)
    # the seed comes from --seed or run_pipeline(..., seed=), not the run config
    assert replace(config, seed=7).digest(sha256) == io.config_digest(flat | {"seed": 7})


# The file of each input in `run_inputs`, and the inputs each subcommand reads.
INPUT_FILE_NAMES = {"pairwise": "pairwise.csv", "indicators": "indicators.csv",
                    "decision": "asteroids.csv", "scenario": "scenario.json", "gdp": "gdp.csv",
                    "train": "train.json"}
SUBCOMMAND_READS = {"weights": ["pairwise"], "consistency": ["pairwise"], "topsis": ["decision"],
                    "equity": ["indicators", "pairwise"], "simulate": ["scenario"],
                    "allocate": ["indicators", "gdp", "scenario", "pairwise"],
                    "correlate": ["indicators", "pairwise"],
                    "sensitivity": ["indicators", "train", "pairwise"]}


@pytest.fixture
def run_inputs(tmp_path):
    """The sample inputs, train.json cut to 5 epochs, and a run config with a
    decision matrix, in one directory; returns the directory."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for file in INPUT_FILE_NAMES.values():
        shutil.copy(sample_path(file), inputs / file)
    train = json.loads(sample_path("train.json").read_text())
    (inputs / "train.json").write_text(json.dumps({**train, "epochs": 5}, indent=2))
    config = json.loads(sample_path("config.json").read_text())
    (inputs / "config.json").write_text(json.dumps({**config, "decision": "asteroids.csv"}))
    return inputs


def _subcommand_args(command, inputs) -> list:
    args = [command]
    for name in SUBCOMMAND_READS[command]:
        args += [f"--{name}", str(inputs / INPUT_FILE_NAMES[name])]
    return args + (["--bottom-count", "2"] if command == "allocate" else [])


def _digests(inputs, out) -> dict:
    """{(command, report name): config_digest} of report and every subcommand."""
    runs = {"report": ["report", "--config", str(inputs / "config.json")]}
    runs |= {command: _subcommand_args(command, inputs) for command in SUBCOMMAND_READS}
    digests = {}
    for command, args in runs.items():
        code, output = run_cli(args + ["--out", str(out / command)])
        assert code == 0, output
        digests |= {(command, p.name): json.loads(p.read_text())["config_digest"]
                    for p in (out / command).glob("*.json")}
    return digests


# One byte changed in each input; the run still succeeds.
ONE_BYTE_EDITS = {
    "pairwise": ("pairwise.csv", b"indicator,", b"Indicator,"),
    "indicators": ("indicators.csv", b"0.6961", b"0.6962"),
    "decision": ("asteroids.csv", b"Didymos,62", b"Didymos,63"),
    "scenario": ("scenario.json", b"baseline-70T", b"baseline-70U"),
    "gdp": ("gdp.csv", b"2150.0", b"2150.5"),
    "train": ("train.json", b' "', b'\t"'),  # whitespace: the same parsed config
}


@pytest.mark.parametrize("name", pipeline.INPUT_FILES)
def test_editing_one_byte_of_an_input_changes_every_digest_over_it(tmp_path, run_inputs, name):
    before = _digests(run_inputs, tmp_path / "before")
    file, old, new = ONE_BYTE_EDITS[name]
    path = run_inputs / file
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    after = _digests(run_inputs, tmp_path / "after")
    readers = {"report"} | {c for c, names in SUBCOMMAND_READS.items() if name in names}
    assert {key for key in before if before[key] != after[key]} == {
        key for key in before if key[0] in readers}


def test_moving_the_inputs_keeps_every_report_byte_identical(tmp_path, run_inputs):
    moved = shutil.copytree(run_inputs, tmp_path / "elsewhere" / "inputs")
    for inputs in (run_inputs, moved):
        _digests(inputs, inputs.parent / "out")
    a, b = run_inputs.parent / "out", moved.parent / "out"
    assert sorted(p.relative_to(a) for p in a.rglob("*")) == sorted(
        p.relative_to(b) for p in b.rglob("*"))
    for path in a.rglob("*.*"):
        assert path.read_bytes() == (b / path.relative_to(a)).read_bytes(), path


@pytest.mark.parametrize("sizes", ["[1e300, 16, 1]", "[7, 1e16, 1]", "[6, 16, 1]", "[7, 16, 2]"],
                         ids=["huge-input-width", "huge-hidden-width", "wrong-input-width",
                              "wrong-output-width"])
def test_layer_sizes_that_do_not_fit_print_error_json(tmp_path, sizes):
    # a huge hidden layer fails to allocate at once: 7e16 weights need 497 PiB
    train = tmp_path / "train.json"
    train.write_text(f'{{"layer_sizes": {sizes}, "epochs": 1}}')
    code, output = run_cli(["sensitivity", "--indicators", INDICATORS, "--train", str(train),
                            "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == "sensitivity" and "layer_sizes" in error["message"]


def test_equity_rejects_a_pairwise_matrix_of_another_size(tmp_path):
    pairwise = tmp_path / "pairwise5.csv"
    pairwise.write_text(",A,B,C,D,E\n" + "".join(f"{c},1,1,1,1,1\n" for c in "ABCDE"))
    code, output = run_cli(["equity", "--indicators", INDICATORS, "--pairwise",
                            str(pairwise), "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == "equity" and "7-criterion" in error["message"]


@pytest.mark.parametrize("command, value", [
    ("allocate", "nan"), ("allocate", "inf"), ("allocate", "1e308"), ("sensitivity", "NaN"),
    ("sensitivity", "Infinity"),
], ids=["nan-multiplier", "inf-multiplier", "overflowing-multiplier", "nan-learning-rate",
        "inf-learning-rate"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_policy_and_training_numbers_are_rejected(tmp_path, command, value):
    if command == "allocate":
        stage, field = "allocation", "multiplier"
        args = ["allocate", "--indicators", INDICATORS, "--gdp", str(sample_path("gdp.csv")),
                "--scenario", str(sample_path("scenario.json")), "--bottom-count", "2",
                "--multiplier", value]
    else:
        stage, field = "sensitivity", "learning_rate"
        (tmp_path / "train.json").write_text(f'{{"learning_rate": {value}}}')
        args = ["sensitivity", "--indicators", INDICATORS, "--train", str(tmp_path / "train.json")]
    code, output = run_cli(args + ["--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == stage and field in error["message"]
    assert not (tmp_path / "out").exists()


def _snapshot(directory):
    """{name: bytes, or None for a directory} of every entry in directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("obstacle", ["out-is-a-file", "report-name-is-a-directory"])
@pytest.mark.parametrize("args", [
    ["report", "--config", str(sample_path("config.json"))],
    ["weights", "--pairwise", PAIRWISE],
], ids=["report", "weights"])
def test_unwritable_out_prints_the_write_error(tmp_path, args, obstacle):
    out = tmp_path / "out"
    if obstacle == "out-is-a-file":
        out.write_text("not a directory\n")
    else:
        (out / "weights.json").mkdir(parents=True)
    code, output = run_cli(args + ["--out", str(out)])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == "write" and str(out) in error["message"]
    made = {out} if obstacle == "out-is-a-file" else {out, out / "weights.json"}
    assert set(tmp_path.rglob("*")) == made


def test_failed_report_leaves_out_as_it_was(tmp_path):
    (tmp_path / "train.json").write_text('{"epochs": true}')
    (tmp_path / "config.json").write_text(sample_config(train=str(tmp_path / "train.json")))
    out = tmp_path / "out"
    out.mkdir()
    for name in (*REPORT_FILES, "notes.txt"):
        (out / name).write_text(f"stale {name}\n")
    before = _snapshot(out)
    code, output = run_cli(["report", "--config", str(tmp_path / "config.json"),
                            "--out", str(out)])
    assert code == 1
    assert json.loads(output)["error"]["stage"] == "config"
    assert _snapshot(out) == before


def test_report_name_held_by_a_directory_leaves_out_as_it_was(tmp_path):
    # consistency.json is renamed before weights.json: the directory is found
    # before the first rename, so no stale report is replaced
    out = tmp_path / "out"
    (out / "weights.json").mkdir(parents=True)
    for name in REPORT_FILES[:1] + REPORT_FILES[2:]:
        (out / name).write_text(f"stale {name}\n")
    before = _snapshot(out)
    code, output = run_cli(["report", "--config", str(sample_path("config.json")),
                            "--out", str(out)])
    assert code == 1
    error = json.loads(output)["error"]
    assert error["stage"] == "write" and "weights.json" in error["message"]
    assert _snapshot(out) == before


REPORTS = {"weights.json": {"mean": [0.5, 0.5]}, "sensitivity.csv": (("value",), [(0.25,)])}


def test_write_error_before_the_first_rename_leaves_out_as_it_was(tmp_path, monkeypatch):
    def full_disk(path, header, rows):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(io, "write_csv", full_disk)
    (tmp_path / "weights.json").write_text("stale\n")
    before = _snapshot(tmp_path)
    with pytest.raises(PipelineError) as raised:
        pipeline.write_reports(tmp_path, "digest", REPORTS)
    assert raised.value.stage == "write" and str(tmp_path) in raised.value.message
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("report, key", [
    ({"weights.json": {"mean": [0.5, math.nan]}}, "mean"),
    ({"mining.json": {"income": {"cumulative": math.inf}}}, "cumulative"),
    ({"correlation.json": {"indicators": [{"r": math.nan, "t_stat": math.inf}]}}, "r"),
], ids=["nan", "inf-outside-its-keys", "nan-beside-an-infinite-t-stat"])
def test_non_finite_report_value_is_a_write_error_naming_file_and_key(tmp_path, report, key):
    (tmp_path / "weights.json").write_text("stale\n")
    before = _snapshot(tmp_path)
    with pytest.raises(PipelineError) as raised:
        pipeline.write_reports(tmp_path, "digest", {**REPORTS, **report})
    [name] = report
    assert raised.value.stage == "write"
    assert raised.value.message.startswith(f"{name}: {key!r} is ")
    assert _snapshot(tmp_path) == before


def test_documented_infinities_are_written_as_null(tmp_path):
    pipeline.write_reports(tmp_path, "digest", {
        "mining.json": {"window": {"t1": 0.0, "t2": math.inf}},
        "correlation.json": {"indicators": [{"r": -1.0, "t_stat": math.inf}]},
    })
    assert json.loads((tmp_path / "mining.json").read_text())["window"]["t2"] is None
    [row] = json.loads((tmp_path / "correlation.json").read_text())["indicators"]
    assert row == {"r": -1.0, "t_stat": None}


def test_path_holding_a_nul_byte_is_a_write_error(tmp_path):
    with pytest.raises(PipelineError) as raised:
        pipeline.write_reports(tmp_path / "o\x00ut", "digest", REPORTS)
    assert raised.value.stage == "write" and "embedded null byte" in raised.value.message
    assert _snapshot(tmp_path) == {}


def test_failed_rename_leaves_out_as_it_was(tmp_path, run_inputs, monkeypatch):
    # os.replace fails with ENOSPC on its k-th call, for every call a run into an --out
    # holding every other report makes: each old report is moved back from its backup,
    # and each new one that replaced none is removed
    out, config = tmp_path / "out", run_inputs / "config.json"
    out.mkdir()
    for name in (*REPORT_FILES[::2], "notes.txt"):
        (out / name).write_text(f"stale {name}\n")
    before = _snapshot(out)
    replace, calls = os.replace, []

    def failing(src, dst):
        calls.append(dst)
        if len(calls) == fail_on:
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    fail_on = 0  # never: count the calls of a run into a copy of out
    shutil.copytree(out, tmp_path / "copy")
    pipeline.run_pipeline(config, tmp_path / "copy")
    assert len(calls) == len(REPORT_FILES) + len(REPORT_FILES[::2])  # one more per old report
    for fail_on in range(1, len(calls) + 1):
        calls.clear()
        with pytest.raises(PipelineError) as raised:
            pipeline.run_pipeline(config, out)
        assert raised.value.stage == "write" and "No space left" in raised.value.message
        assert _snapshot(out) == before, fail_on


def test_files_named_like_another_runs_temporaries_neither_stop_the_write_nor_are_touched(
        tmp_path):
    # hidden files that are not this call's, even under a report's name and this
    # process's PID, neither stop the write nor are touched
    left = {f".sensitivity.csv.{os.getpid()}.{suffix}": f"left {suffix}\n".encode()
            for suffix in ("tmp", "old")}
    for name, content in left.items():
        (tmp_path / name).write_bytes(content)
    (tmp_path / "sensitivity.csv").write_text("stale\n")
    pipeline.write_reports(tmp_path, "digest", REPORTS)
    assert _snapshot(tmp_path) == {**left, **{name: (tmp_path / name).read_bytes()
                                              for name in REPORTS}}
    assert (tmp_path / "sensitivity.csv").read_text() == "value\n0.25\n"
