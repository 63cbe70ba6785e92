import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from equimine import io, pipeline
from equimine.cli import main
from equimine.data import sample_dir, sample_path
from equimine.errors import PipelineError


@pytest.fixture
def runner():
    return CliRunner()


def test_weights_command(runner, tmp_path):
    result = runner.invoke(main, ["weights", "--pairwise", str(sample_path("pairwise.csv")),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "weights.json").read_text())
    assert set(payload["methods"]) == {"arithmetic-mean", "geometric-mean", "eigenvalue"}
    for method, weights in payload["methods"].items():
        assert abs(sum(weights) - 1.0) < 1e-5


def test_consistency_command(runner, tmp_path):
    result = runner.invoke(main, ["consistency", "--pairwise", str(sample_path("pairwise.csv")),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "consistency.json").read_text())
    assert payload["passes"] is True
    assert payload["cr"] < 0.1


def test_topsis_command_on_asteroids(runner, tmp_path):
    result = runner.invoke(main, ["topsis", "--decision", str(sample_path("asteroids.csv")),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "topsis.json").read_text())
    assert payload["ranking"][0] == "Anteros"  # dominant value and profit
    csv_lines = (tmp_path / "topsis.csv").read_text().splitlines()
    assert csv_lines[0] == "label,d_plus,d_minus,s,s_normalized,rank"
    assert len(csv_lines) == 5


def test_equity_command(runner, tmp_path):
    result = runner.invoke(main, ["equity", "--indicators", str(sample_path("indicators.csv")),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "equity.json").read_text())
    assert payload["global_equity_index"] >= 0
    assert len(payload["scores"]) == 8


def test_simulate_command(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--scenario", str(sample_path("scenario.json")),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "mining.json").read_text())
    assert payload["income"]["cumulative"] > 0
    assert payload["profit"]["cumulative"] == pytest.approx(
        payload["income"]["cumulative"] - 5e12, rel=1e-6)


def test_simulate_asteroid_scenario_full_horizon(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--scenario", str(sample_path("anteros.json")),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
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
def test_simulate_narrow_peak_far_from_zero(runner, tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    result = runner.invoke(main, ["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "mining.json").read_text())
    assert payload["positive_mass"] == 1.0
    assert payload["income"]["cumulative"] == 7e13


@pytest.mark.parametrize("dof", [1e20, 1e300])
def test_simulate_large_dof_reaches_the_normal_limit(runner, tmp_path, dof):
    # peak 3 scales right of t = 0, so the positive mass tends to Phi(3)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"dof": dof, "location": 15, "scale": 5}))
    result = runner.invoke(main, ["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "mining.json").read_text())
    assert payload["positive_mass"] == pytest.approx(0.5 * math.erfc(-3 / math.sqrt(2)), rel=1e-6)
    assert payload["income"]["cumulative"] == 7e13


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = ("import sys, equimine.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


def test_allocate_command(runner, tmp_path):
    result = runner.invoke(main, [
        "allocate", "--indicators", str(sample_path("indicators.csv")),
        "--gdp", str(sample_path("gdp.csv")), "--scenario", str(sample_path("scenario.json")),
        "--bottom-count", "2", "--out", str(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "allocation.json").read_text())
    by_country = {s["country"]: s for s in payload["shares"]}
    assert by_country["Elbonia"]["gamma"] == 1.2  # lowest GDP
    assert by_country["Borduria"]["gamma"] == 1.2  # second lowest
    assert by_country["Arcadia"]["gamma"] == 1.0
    total = sum(s["conserved_share"] for s in payload["shares"])
    assert total == pytest.approx(payload["total_profit"], rel=1e-5)


def test_correlate_command(runner, tmp_path):
    result = runner.invoke(main, ["correlate", "--indicators", str(sample_path("indicators.csv")),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "correlation.json").read_text())
    assert payload["n"] == 40
    assert len(payload["indicators"]) == 7
    for entry in payload["indicators"]:
        assert -1 <= entry["r"] <= 1
        assert entry["strength"] in ("strong", "moderate", "weak", "negligible")


def test_sensitivity_command(runner, tmp_path):
    fast_train = tmp_path / "train.json"
    fast_train.write_text('{"learning_rate": 0.5, "epochs": 300, "seed": 0, '
                          '"layer_sizes": [7, 8, 1]}')
    result = runner.invoke(main, ["sensitivity",
                                  "--indicators", str(sample_path("indicators.csv")),
                                  "--train", str(fast_train), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "sensitivity.json").read_text())
    assert len(payload["sensitivities"]) == 7
    assert payload["variation_band"] == 0.07
    assert isinstance(payload["within_band"], bool)
    lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "indicator,value"
    assert len(lines) == 8


def test_report_full_pipeline(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["report", "--config", str(sample_path("config.json")),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    expected = {"weights.json", "consistency.json", "equity.json", "topsis.json",
                "mining.json", "allocation.json", "correlation.json", "sensitivity.csv"}
    assert expected <= {p.name for p in out.iterdir()}
    equity_payload = json.loads((out / "equity.json").read_text())
    ge = equity_payload["global_equity_index"]
    assert ge is not None and np.isfinite(ge) and ge >= 0
    # every JSON report embeds the same config digest
    digests = set()
    for name in expected - {"sensitivity.csv"}:
        digests.add(json.loads((out / name).read_text())["config_digest"])
    assert len(digests) == 1


def test_report_seed_override_changes_sensitivity_only(runner, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, seed in ((out_a, "1"), (out_b, "2")):
        result = runner.invoke(main, ["report", "--config", str(sample_path("config.json")),
                                      "--out", str(out), "--seed", seed])
        assert result.exit_code == 0, result.output
    assert (out_a / "sensitivity.csv").read_text() != (out_b / "sensitivity.csv").read_text()
    # seed participates in the digest, so reports differ only by that field
    a = json.loads((out_a / "equity.json").read_text())
    b = json.loads((out_b / "equity.json").read_text())
    assert a["scores"] == b["scores"]


def test_report_fails_on_inconsistent_matrix(runner, tmp_path):
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
    result = runner.invoke(main, ["report", "--config", str(tmp_path / "config.json"),
                                  "--out", str(out)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"]["stage"] == "consistency"
    assert payload["error"]["cr"] >= 0.1
    # a CR failure writes no report, consistency.json included
    assert list(out.iterdir()) == []


def test_report_rerun_is_byte_identical(runner, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        result = runner.invoke(main, ["report", "--config", str(sample_path("config.json")),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
    for path_a in out_a.iterdir():
        assert path_a.read_bytes() == (out_b / path_a.name).read_bytes(), path_a.name


def test_missing_input_fails_cleanly(runner, tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({
        "indicators": "nope.csv", "pairwise": "nope.csv", "gdp": "nope.csv",
        "scenario": "nope.json", "train": "nope.json",
    }))
    result = runner.invoke(main, ["report", "--config", str(tmp_path / "config.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert "not found" in payload["error"]["message"]


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sample"
PAIRWISE = str(sample_path("pairwise.csv"))
INDICATORS = str(sample_path("indicators.csv"))
SCENARIO = str(sample_path("scenario.json"))


def sample_config(**fields) -> str:
    """The sample run config, its input paths made absolute and `fields` set over it."""
    config = json.loads(sample_path("config.json").read_text())
    for key in ("indicators", "pairwise", "gdp", "scenario", "train"):
        config[key] = str(sample_path(config[key]))
    return json.dumps({**config, **fields})


@pytest.fixture(scope="module")
def sample_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    result = CliRunner().invoke(main, ["report", "--config", str(sample_path("config.json")),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
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


def test_stage_failure_is_logged_at_error_naming_the_stage(runner, tmp_path, caplog):
    (tmp_path / "train.json").write_text('{"epochs": true}')
    with caplog.at_level(logging.INFO, logger="equimine.pipeline"):
        result = runner.invoke(main, ["sensitivity", "--indicators", INDICATORS, "--train",
                                      str(tmp_path / "train.json"), "--out", str(tmp_path)])
    assert result.exit_code == 1
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
def test_subcommand_writes_the_report_payload(runner, tmp_path, sample_report, args, files):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        assert _same_report(tmp_path / name, sample_report / name), name


def _sample_config(**changes):
    """The bundled run config with absolute paths, updated with changes."""
    sample = sample_dir()
    config = json.loads((sample / "config.json").read_text())
    for key in ("indicators", "pairwise", "gdp", "scenario", "train"):
        config[key] = str(sample / config[key])
    return {**config, **changes}


def test_income_mode_precedence(runner, tmp_path):
    """The --income-mode flag, then the run config's income_mode, then the scenario's mode."""
    scenario = json.loads(sample_path("scenario.json").read_text())
    # up to the peak, so the paper-literal rate difference gives a positive profit
    scenario.update(t2=15.0, cost=0.0, mode="paper-literal")
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    scenario_mode = _sample_config(scenario=str(scenario_path))
    del scenario_mode["income_mode"]
    (tmp_path / "no-mode.json").write_text(json.dumps(scenario_mode))
    (tmp_path / "cumulative.json").write_text(json.dumps({**scenario_mode,
                                                          "income_mode": "cumulative"}))
    runs = {
        "scenario": ["report", "--config", str(tmp_path / "no-mode.json")],
        "config": ["report", "--config", str(tmp_path / "cumulative.json")],
        "flag": ["report", "--config", str(tmp_path / "cumulative.json"),
                 "--income-mode", "paper-literal"],
        "allocate": ["allocate", "--indicators", INDICATORS, "--gdp", str(sample_path("gdp.csv")),
                     "--scenario", str(scenario_path), "--pairwise", PAIRWISE,
                     "--bottom-count", "2"],
    }
    profits = {}
    for name, args in runs.items():
        result = runner.invoke(main, args + ["--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        allocation_report = json.loads((tmp_path / name / "allocation.json").read_text())
        profits[name] = allocation_report["total_profit"]
    mining_report = json.loads((tmp_path / "scenario" / "mining.json").read_text())
    assert mining_report["selected_mode"] == "paper-literal"
    literal, cumulative = (mining_report["profit"][m] for m in ("paper-literal", "cumulative"))
    assert literal != cumulative
    assert profits == {"scenario": literal, "config": cumulative, "flag": literal,
                       "allocate": literal}


@pytest.mark.parametrize("alloc_basis", ["equity", "topsis"])
@pytest.mark.parametrize("alloc_mode", ["conserve", "paper-literal"])
@pytest.mark.parametrize("income_mode", ["cumulative", "paper-literal"])
def test_every_mode_combination_reports_on_the_sample(runner, tmp_path, income_mode, alloc_mode,
                                                      alloc_basis):
    # the sample window [0, 30] is symmetric about the curve's peak, so the
    # paper-literal income is 0 and its profit is minus the cost: a loss
    # allocates nothing, while mining.json keeps the negative profit
    result = runner.invoke(main, ["report", "--config", str(sample_path("config.json")),
                                  "--out", str(tmp_path), "--income-mode", income_mode,
                                  "--alloc-mode", alloc_mode, "--alloc-basis", alloc_basis])
    assert result.exit_code == 0, result.output
    profit = json.loads((tmp_path / "mining.json").read_text())["profit"][income_mode]
    assert (profit < 0) == (income_mode == "paper-literal")
    allocation_report = json.loads((tmp_path / "allocation.json").read_text())
    assert allocation_report["total_profit"] == max(profit, 0.0)
    shares = [s[k] for s in allocation_report["shares"] for k in ("raw_share", "conserved_share")]
    assert all(v == 0 for v in shares) == (profit < 0)


def test_topsis_subcommand_matches_report_with_decision(runner, tmp_path):
    decision = str(sample_path("asteroids.csv"))
    (tmp_path / "config.json").write_text(json.dumps(_sample_config(decision=decision)))
    for args in (["report", "--config", str(tmp_path / "config.json")],
                 ["topsis", "--decision", decision]):
        result = runner.invoke(main, args + ["--out", str(tmp_path / args[0])])
        assert result.exit_code == 0, result.output
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
def test_malformed_json_input_prints_error_json(runner, tmp_path, args, text, stage):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    result = runner.invoke(main, args + [str(bad), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert not isinstance(result.exception, ValueError)
    error = json.loads(result.output)["error"]
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
    (["topsis", "--decision"], b"alt,a:benefit,b:benefit\nx,1e200,1\ny,1e200,2\n", "topsis"),
], ids=["pairwise-row-count", "not-utf8", "oversized-cell", "bad-mid-optimum",
        "overflowing-ratio", "overflowing-indicator", "overflowing-indicator-sensitivity",
        "overflowing-topsis-norm"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_csv_input_prints_error_json(runner, tmp_path, args, content, stage):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    result = runner.invoke(main, args + [str(bad), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    error = json.loads(result.output)["error"]
    assert error["stage"] == stage


@pytest.mark.parametrize("args, stage", [
    (["equity", "--indicators"], "equity"),
    (["sensitivity", "--indicators", INDICATORS, "--train"], "sensitivity"),
    (["report", "--config"], "config"),
], ids=["equity-indicators", "sensitivity-train", "report-config"])
def test_directory_as_input_file_prints_error_json(runner, tmp_path, args, stage):
    result = runner.invoke(main, args + [str(tmp_path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # the error JSON, not a traceback
    error = json.loads(result.output)["error"]
    assert error["stage"] == stage and str(tmp_path) in error["message"]


@pytest.mark.parametrize("sizes", ["[1e300, 16, 1]", "[7, 1e16, 1]", "[6, 16, 1]", "[7, 16, 2]"],
                         ids=["huge-input-width", "huge-hidden-width", "wrong-input-width",
                              "wrong-output-width"])
def test_layer_sizes_that_do_not_fit_print_error_json(runner, tmp_path, sizes):
    # a huge hidden layer fails to allocate at once: 7e16 weights need 497 PiB
    train = tmp_path / "train.json"
    train.write_text(f'{{"layer_sizes": {sizes}, "epochs": 1}}')
    result = runner.invoke(main, ["sensitivity", "--indicators", INDICATORS, "--train", str(train),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # the error JSON, not a traceback
    error = json.loads(result.output)["error"]
    assert error["stage"] == "sensitivity" and "layer_sizes" in error["message"]


def test_equity_rejects_a_pairwise_matrix_of_another_size(runner, tmp_path):
    pairwise = tmp_path / "pairwise5.csv"
    pairwise.write_text(",A,B,C,D,E\n" + "".join(f"{c},1,1,1,1,1\n" for c in "ABCDE"))
    result = runner.invoke(main, ["equity", "--indicators", INDICATORS, "--pairwise",
                                  str(pairwise), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    error = json.loads(result.output)["error"]
    assert error["stage"] == "equity" and "7-criterion" in error["message"]


@pytest.mark.parametrize("command, value", [
    ("allocate", "nan"), ("allocate", "inf"), ("allocate", "1e308"), ("sensitivity", "NaN"),
    ("sensitivity", "Infinity"),
], ids=["nan-multiplier", "inf-multiplier", "overflowing-multiplier", "nan-learning-rate",
        "inf-learning-rate"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_policy_and_training_numbers_are_rejected(runner, tmp_path, command, value):
    if command == "allocate":
        stage, field = "allocation", "multiplier"
        args = ["allocate", "--indicators", INDICATORS, "--gdp", str(sample_path("gdp.csv")),
                "--scenario", str(sample_path("scenario.json")), "--bottom-count", "2",
                "--multiplier", value]
    else:
        stage, field = "sensitivity", "learning_rate"
        (tmp_path / "train.json").write_text(f'{{"learning_rate": {value}}}')
        args = ["sensitivity", "--indicators", INDICATORS, "--train", str(tmp_path / "train.json")]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    error = json.loads(result.output)["error"]
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
def test_unwritable_out_prints_the_write_error(runner, tmp_path, args, obstacle):
    out = tmp_path / "out"
    if obstacle == "out-is-a-file":
        out.write_text("not a directory\n")
    else:
        (out / "weights.json").mkdir(parents=True)
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # the error JSON, not a traceback
    error = json.loads(result.output)["error"]
    assert error["stage"] == "write" and str(out) in error["message"]
    assert [p.name for p in tmp_path.rglob("*.tmp")] == []


def test_failed_report_leaves_out_as_it_was(runner, tmp_path):
    (tmp_path / "train.json").write_text('{"epochs": true}')
    (tmp_path / "config.json").write_text(
        json.dumps(_sample_config(train=str(tmp_path / "train.json"))))
    out = tmp_path / "out"
    out.mkdir()
    for name in (*pipeline.REPORT_FILES, "notes.txt"):
        (out / name).write_text(f"stale {name}\n")
    before = _snapshot(out)
    result = runner.invoke(main, ["report", "--config", str(tmp_path / "config.json"),
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert json.loads(result.output)["error"]["stage"] == "sensitivity"
    assert _snapshot(out) == before


def test_report_name_held_by_a_directory_leaves_out_as_it_was(runner, tmp_path):
    # consistency.json is renamed before weights.json: the directory is found
    # before the first rename, so no stale report is replaced
    out = tmp_path / "out"
    (out / "weights.json").mkdir(parents=True)
    for name in pipeline.REPORT_FILES[:1] + pipeline.REPORT_FILES[2:]:
        (out / name).write_text(f"stale {name}\n")
    before = _snapshot(out)
    result = runner.invoke(main, ["report", "--config", str(sample_path("config.json")),
                                  "--out", str(out)])
    assert result.exit_code == 1
    error = json.loads(result.output)["error"]
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


def test_write_error_cleanup_removes_only_its_own_temporaries(tmp_path):
    # a file already holding the second report's temporary name stops the
    # write, and is not this call's to remove
    (tmp_path / f".sensitivity.csv.{os.getpid()}.tmp").write_text("not ours\n")
    before = _snapshot(tmp_path)
    with pytest.raises(PipelineError):
        pipeline.write_reports(tmp_path, "digest", REPORTS)
    assert _snapshot(tmp_path) == before
