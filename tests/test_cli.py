import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from equimine.cli import main
from equimine.data import sample_dir, sample_path


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
    result = runner.invoke(main, ["report", "--config", str(tmp_path / "config.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"]["stage"] == "consistency"
    assert payload["error"]["cr"] >= 0.1


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
], ids=["scenario", "train-config", "run-config", "negative-seed", "saturated-network"])
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
], ids=["pairwise-row-count", "not-utf8", "oversized-cell"])
def test_malformed_csv_input_prints_error_json(runner, tmp_path, args, content, stage):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    result = runner.invoke(main, args + [str(bad), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    error = json.loads(result.output)["error"]
    assert error["stage"] == stage
