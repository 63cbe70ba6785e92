import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from equimine import equity, io, pipeline
from equimine.data import sample_dir, sample_path
from equimine.errors import ParseError, ValidationError


class TestParseRatio:
    def test_fractions_exact(self):
        assert io.parse_ratio("1/3") == 1.0 / 3.0
        assert io.parse_ratio("7") == 7.0
        assert io.parse_ratio("0.5") == 0.5
        assert io.parse_ratio(" 2/9 ") == 2.0 / 9.0

    def test_bad_ratio(self):
        with pytest.raises(ParseError):
            io.parse_ratio("three")
        with pytest.raises(ParseError):
            io.parse_ratio("1/0")


class TestPairwiseCsv:
    def test_loads_sample(self):
        matrix = io.load_pairwise_csv(sample_path("pairwise.csv"))
        assert matrix.labels == ["EI", "IDG", "CEA", "MA", "HR", "ER", "SA"]
        assert matrix.entries[0, 1] == 0.5
        assert matrix.entries[1, 0] == 2.0
        # fraction cells parse exactly and reciprocity is enforced
        assert matrix.entries[3, 1] * matrix.entries[1, 3] == 1.0

    def test_row_label_mismatch(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text(",A,B\nB,1,2\nA,1/2,1\n")
        with pytest.raises(ParseError, match="line 2"):
            io.load_pairwise_csv(bad)

    def test_bad_cell_reports_line(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text(",A,B\nA,1,2\nB,oops,1\n")
        with pytest.raises(ParseError, match="line 3"):
            io.load_pairwise_csv(bad)

    def test_overflowing_cell_reports_line(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text(",A,B\nA,1,1e400\nB,1,1\n")
        with pytest.raises(ParseError, match="line 2"):
            io.load_pairwise_csv(bad)


class TestDecisionCsv:
    def test_loads_sample_asteroids(self):
        matrix = io.load_decision_csv(sample_path("asteroids.csv"))
        assert matrix.alternative_labels == ["Didymos", "Anteros", "2001 CC21", "1992 TC"]
        assert matrix.indicator_labels == ["est_value_busd", "est_profit_busd", "delta_v_km_s"]
        kinds = [k.kind for k in matrix.indicator_kinds]
        assert kinds == ["benefit", "benefit", "cost"]
        assert matrix.values[1, 0] == 5570.0

    def test_mid_annotation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("alt,a:benefit,b:mid=3.5\nx,1,2\ny,4,5\n")
        matrix = io.load_decision_csv(path)
        assert matrix.indicator_kinds[1].kind == "intermediate"
        assert matrix.indicator_kinds[1].x_best == 3.5

    def test_missing_annotation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("alt,a,b:cost\nx,1,2\n")
        with pytest.raises(ParseError, match="annotation"):
            io.load_decision_csv(path)

    @pytest.mark.parametrize("annotation", ["mid=abc", "mid=", "mid=inf"])
    def test_bad_mid_optimum_names_line_1(self, tmp_path, annotation):
        path = tmp_path / "d.csv"
        path.write_text(f"alt,a:benefit,b:{annotation}\nx,1,2\ny,4,5\n")
        with pytest.raises(ParseError, match="line 1"):
            io.load_decision_csv(path)


class TestIndicatorTable:
    def test_loads_sample(self):
        table = io.load_indicator_table(sample_path("indicators.csv"))
        assert table.values.shape == (8, 5, 7)
        assert table.countries[0] == "Arcadia"
        assert len(table.countries) == 8
        assert table.years == [2017, 2018, 2019, 2020, 2021]

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("country,year,ei,idg,cea,ma,hr,er,sa\n"
                        "X,2020,.1,.2,.3,.4,.5,.6,.7\n"
                        "X,2021,.2,.3,.4,.5,.6,.7,.8\n")
        table = io.load_indicator_table(path)
        assert (table.countries, table.years) == (["X"], [2020, 2021])
        assert table.values.shape == (1, 2, 7)
        assert table.values[0, 1, 0] == 0.2

    def test_missing_column_names_line(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("country,year,ei,idg,cea,ma,hr,er,sa\n"
                        "X,2020,.1,.2,.3,.4,.5,.6\n")
        with pytest.raises(ParseError, match="line 2"):
            io.load_indicator_table(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("country,year,ei,idg,cea,ma,hr,er,sa\n"
                        "France,2020,.1,.2,.3,.4,.5,.6,.7\n"
                        "France,2020,.2,.3,.4,.5,.6,.7,.8\n")
        with pytest.raises(ValidationError, match="France"):
            io.load_indicator_table(path)

    def test_incomplete_panel_detected(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("country,year,ei,idg,cea,ma,hr,er,sa\n"
                        "X,2020,.1,.2,.3,.4,.5,.6,.7\n"
                        "Y,2021,.2,.3,.4,.5,.6,.7,.8\n")
        with pytest.raises(ValidationError, match="missing"):
            io.load_indicator_table(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "i.csv"
        path.write_text("country,year,ei,idg,cea,ma,hr,er,sa\n"
                        "X,2020,.1,.2,.3,.4,.5,.6,.7\n"
                        f"X,2021,.2,.3,{cell},.5,.6,.7,.8\n")
        with pytest.raises(ParseError, match="line 3"):
            io.load_indicator_table(path)


class TestGdpCsv:
    def test_loads_sample(self):
        gdp = io.load_gdp_csv(sample_path("gdp.csv"))
        assert gdp["Elbonia"] == 145.0
        assert len(gdp) == 8

    def test_duplicate_country(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("country,gdp\nA,1\nA,2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            io.load_gdp_csv(path)


class TestScenario:
    def test_loads_sample(self):
        params, window, name = io.load_scenario(sample_path("scenario.json"))
        assert params.total_value == 70e12
        assert window.t2 == 30.0
        assert window.cost == 5e12
        assert name == "baseline-70T"

    def test_defaults_and_inf(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{}")
        params, window, name = io.load_scenario(path)
        assert params.dof == 5.0 and params.location == 15.0 and params.scale == 5.0
        assert window.t1 == 0.0 and math.isinf(window.t2) and window.cost == 0.0
        assert name is None

    def test_null_t2_is_a_parse_error_naming_it(self, tmp_path):
        # t2 is a number or "inf"; null is not a spelling of an open window
        path = tmp_path / "s.json"
        path.write_text('{"t2": null}')
        with pytest.raises(ParseError, match="field 't2' has a bad value None"):
            io.load_scenario(path)

    @pytest.mark.parametrize("name", ["NaN", "5", '["a"]', "true"])
    def test_name_is_a_string_or_null(self, tmp_path, name):
        # a NaN name once loaded, and failed only when mining.json was written
        path = tmp_path / "s.json"
        path.write_text('{"name": %s}' % name)
        with pytest.raises(ParseError, match="field 'name' has a bad value"):
            io.load_scenario(path)
        path.write_text('{"name": null}')
        assert io.load_scenario(path)[2] is None

    def test_asteroid_valuation_scenario(self):
        # sample built from the bundled asteroid valuations
        params, window, name = io.load_scenario(sample_path("anteros.json"))
        assert params.total_value == 5.57e12
        assert window.cost == 4.32e12
        assert math.isinf(window.t2)
        assert name == "Anteros"


class TestTrainConfigFile:
    def test_loads_sample(self):
        config = io.load_train_config(sample_path("train.json"))
        assert config.layer_sizes == (7, 16, 1)
        assert config.learning_rate == 0.1
        assert config.epochs == 5000
        assert config.seed == 0

    def test_integral_floats_are_integers(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text('{"epochs": 12.0, "seed": 3, "layer_sizes": [7, 4.0, 1]}')
        config = io.load_train_config(path)
        assert (config.epochs, config.seed, config.layer_sizes) == (12, 3, (7, 4, 1))
        assert all(type(v) is int for v in (config.epochs, config.seed, *config.layer_sizes))


PATHS = '"indicators": "a", "pairwise": "a", "gdp": "a", "scenario": "a", "train": "a"'


@pytest.mark.parametrize("loader, text", [
    (io.load_scenario, '{"t2": "soon"}'),
    (io.load_scenario, '{"dof": [5]}'),
    (io.load_scenario, '{"cost": "high"}'),
    (io.load_scenario, '[1, 2]'),
    (io.load_train_config, '{"layer_sizes": [7, "x", 1]}'),
    (io.load_train_config, '{"epochs": "many"}'),
    (io.load_train_config, '{"epochs": 2.5}'),
    (io.load_train_config, '{"epochs": true}'),
    (io.load_train_config, '{"epochs": "12"}'),
    (io.load_train_config, '{"seed": 1.5}'),
    (io.load_train_config, '{"layer_sizes": [7, 16.9, 1]}'),
    (io.load_train_config, '{"layer_sizes": [7, false, 1]}'),
    (io.load_train_config, '"text"'),
    (pipeline.load_run_config, '{"indicators": "a.csv",'),
    (pipeline.load_run_config, '[]'),
    (pipeline.load_run_config, '{' + PATHS + ', "poverty": {"bottom_count": "two"}}'),
    (pipeline.load_run_config, '{' + PATHS + ', "poverty": [2]}'),
    (pipeline.load_run_config, '{' + PATHS + ', "poverty": {"bottom_count": 2.7}}'),
    (pipeline.load_run_config, '{' + PATHS + ', "poverty": {"multiplier": "1.5"}}'),
    (pipeline.load_run_config, '{' + PATHS + ', "decision": 7}'),
    (pipeline.load_run_config, '{' + PATHS.replace('"a"', '7', 1) + '}'),
])
def test_malformed_json_input_is_parse_error(tmp_path, loader, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        loader(path)


@pytest.mark.parametrize("loader, text, message", [
    (io.load_scenario, '{"doff": 3}', "scenario has an unknown field 'doff'; did you mean 'dof'?"),
    (io.load_train_config, '{"epoch": 10}',
     "train config has an unknown field 'epoch'; did you mean 'epochs'?"),
    (io.load_train_config, '{"zzz": 1}', "train config has an unknown field 'zzz'"),
    (io.load_scenario, '{"mode": "cumulative"}', "scenario has an unknown field 'mode'"),
    (pipeline.load_run_config, '{' + PATHS + ', "income_mod": "cumulative"}',
     "run config has an unknown field 'income_mod'; did you mean 'income_mode'?"),
    (pipeline.load_run_config, '{' + PATHS + ', "seed": 3}',
     "run config has an unknown field 'seed'"),
    (pipeline.load_run_config, '{' + PATHS + ', "poverty": {"bottom": 3}}',
     "run config poverty has an unknown field 'bottom'; did you mean 'bottom_count'?"),
    (pipeline.load_run_config, '{"indicators": "a"}', "run config is missing 'pairwise'"),
], ids=["scenario", "train-config", "no-close-key", "scenario-mode", "run-config",
        "run-config-seed", "run-config-poverty", "missing-path"])
def test_unknown_or_missing_json_field_is_a_parse_error(tmp_path, loader, text, message):
    # each JSON input has one field table: an unknown key names its closest known key, and
    # a required field (a run-config input path) has no default
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(ParseError) as raised:
        loader(path)
    assert str(raised.value) == message


@pytest.mark.parametrize("loader, text, key", [
    (io.load_scenario, '{"dof": 5, "dof": 3}', "dof"),
    (io.load_train_config, '{"epochs": 5, "epochs": 5000}', "epochs"),
    (pipeline.load_run_config, '{' + PATHS + ', "alloc_basis": "equity", "alloc_basis": "topsis"}',
     "alloc_basis"),
    (pipeline.load_run_config,
     '{' + PATHS + ', "poverty": {"multiplier": 2, "multiplier": 1.5}}', "multiplier"),
], ids=["scenario", "train-config", "run-config", "run-config-poverty"])
def test_repeated_json_key_is_a_validation_error_naming_it(tmp_path, loader, text, key):
    # json.loads keeps a repeated key's last value; the loaders reject the file instead
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"field label '{key}' is repeated"):
        loader(path)


@pytest.mark.parametrize("loader, content", [
    (io.load_pairwise_csv, b",A,B\nA,1,2\nB,1/2,1\nC,1,1\n"),
    (io.load_pairwise_csv, b",A,B,C\nA,1,2,1\nB,1/2,1,1\n"),
    (io.load_indicator_table,
     b"country,year,ei,idg,cea,ma,hr,er,sa\nA\xffland,2020,1,1,1,1,1,1,1\n"),
    (io.load_gdp_csv, b"country,gdp\nA," + b"9" * (128 * 1024 + 1) + b"\n"),
], ids=["pairwise-extra-row", "pairwise-missing-row", "not-utf8", "oversized-cell"])
def test_malformed_csv_input_is_parse_error(tmp_path, loader, content):
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        loader(path)


@pytest.mark.parametrize("loader, text", [
    (io.load_pairwise_csv, ",A,B\nA,1,2\n\n\nB,x,1\n"),
    (io.load_decision_csv, "alt,a:benefit\nx,1\n\n\ny,z\n"),
    (io.load_indicator_table, "country,year,ei,idg,cea,ma,hr,er,sa\nX,2020,1,1,1,1,1,1,1\n"
                              " \n,,\nX,2021,1,1,x,1,1,1,1\n"),
    (io.load_gdp_csv, "country,gdp\nA,1\n\n\nB,x\n"),
    (io.load_gdp_csv, "country,gdp\n\n\n\nA,1,2\n"),
    (io.load_gdp_csv, "\n\n\n\ncountry,gdp_usd\nA,1\n"),
], ids=["pairwise", "decision", "indicators", "gdp", "ragged-row", "header"])
def test_parse_errors_name_the_file_line_past_blank_lines(tmp_path, loader, text):
    # blank rows, spaces-only and empty-cell rows included, are skipped but counted
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="^line 5: "):
        loader(path)


@pytest.mark.parametrize("loader, text, line", [
    (io.load_pairwise_csv, ",A,B\nA,1,1_0/3\nB,3/10,1\n", 2),
    (io.load_decision_csv, "alt,a:benefit\nx,1\ny,1_000\n", 3),
    (io.load_decision_csv, "alt,a:mid=1_0\nx,1\ny,2\n", 1),
    (io.load_indicator_table, "country,year,ei,idg,cea,ma,hr,er,sa\n"
                              "X,2017,0_6961,1,1,1,1,1,1\n", 2),
    (io.load_indicator_table, "country,year,ei,idg,cea,ma,hr,er,sa\n"
                              "X,20_17,1,1,1,1,1,1,1\n", 2),
    (io.load_gdp_csv, "country,gdp\nA,1\nB,1_000\n", 3),
], ids=["pairwise-ratio", "decision-cell", "decision-mid", "indicator-cell", "indicator-year",
        "gdp"])
def test_digit_group_underscores_are_parse_errors(tmp_path, loader, text, line):
    # float, int and Fraction read "0_6961" as 6961; no CSV number may hold '_'
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^line {line}: bad number .*'_'"):
        loader(path)


@pytest.mark.parametrize("loader, text, line", [
    (io.load_gdp_csv, "country,gdp\nA,1\nB,\u0661\u0660\u0660\n", 3),
    (io.load_indicator_table, "country,year,ei,idg,cea,ma,hr,er,sa\n"
                              "X,\u0662\u0660\u0661\u0667,1,1,1,1,1,1,1\n", 2),
    (io.load_indicator_table, "country,year,ei,idg,cea,ma,hr,er,sa\n"
                              "X,2017,\uff10.5,1,1,1,1,1,1\n", 2),
    (io.load_pairwise_csv, ",A,B\nA,1,\u0663\nB,1/3,1\n", 2),
], ids=["gdp-arabic-indic", "indicator-year-arabic-indic", "indicator-cell-fullwidth",
        "pairwise-ratio-arabic-indic"])
def test_non_ascii_digits_are_parse_errors(tmp_path, loader, text, line):
    # float, int and Fraction read Arabic-Indic '\u0661\u0660\u0660' as 100; CSV numbers are ASCII
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line {line}: bad number .*non-ASCII"):
        loader(path)


def test_underscores_in_labels_are_kept(tmp_path):
    gdp, indicators = tmp_path / "gdp.csv", tmp_path / "indicators.csv"
    gdp.write_text("country,gdp\nNew_Zealand,10.5\n")
    indicators.write_text("country,year,ei,idg,cea,ma,hr,er,sa\nNew_Zealand,2017,1,1,1,1,1,1,1\n")
    assert io.load_gdp_csv(gdp) == {"New_Zealand": 10.5}
    assert io.load_indicator_table(indicators).countries == ["New_Zealand"]


def traced_peak(run):
    """(run(), the peak traced allocation while it ran above what was traced at its start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def panel_5k(tmp_path):
    """A seeded indicator CSV of 1,000 countries x 5 years: 5,000 records."""
    rng = np.random.default_rng(2024)
    lines = [",".join(("country", "year") + equity.INDICATOR_COLUMNS)]
    for c in range(1000):
        lines += [f"C{c:04d},{year}," + ",".join(map(repr, rng.uniform(0.05, 1.0, 7).tolist()))
                  for year in range(2016, 2021)]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


MiB = 2 ** 20


class TestPanelScaleMemory:
    # The loader streams rows into one flat list of floats and the writer encodes
    # straight into the file, so neither holds a second copy of a 5,000-record
    # panel: per-record lists and a dict of them, or the whole encoded text.
    def test_load_indicator_table_peak(self, panel_5k):
        table, peak = traced_peak(lambda: io.load_indicator_table(panel_5k))
        assert table.values.shape == (1000, 5, 7)
        assert peak < 4 * MiB

    def test_write_json_report_peak(self, panel_5k, tmp_path):
        # no comparison matrix: the run scores the panel with the shipped default weights
        run = pipeline.Run({"indicators": io.load_indicator_table(panel_5k)},
                           pipeline.RunConfig({}))
        payload = pipeline.equity_stage(run)["equity.json"]
        path = tmp_path / "equity.json"
        _, peak = traced_peak(lambda: io.write_json_report(path, payload, ()))
        assert peak < 3 * MiB
        assert path.read_text(encoding="utf-8") == json.dumps(
            io._rounded(payload, ()), indent=2, ensure_ascii=False) + "\n"


# pipeline.load_inputs hashes each file as io streams it, line by line for a CSV:
# CRLF line ends and multi-byte UTF-8 cells hash as the file's own bytes
@pytest.mark.parametrize("name, content", [
    ("pairwise", sample_path("pairwise.csv").read_bytes().replace(b"\n", b"\r\n")),
    ("indicators", sample_path("indicators.csv").read_bytes().replace(b"\n", b"\r\n")),
    ("decision", sample_path("asteroids.csv").read_bytes().replace(b"\n", b"\r\n")),
    ("scenario", sample_path("scenario.json").read_bytes().replace(b"\n", b"\r\n")),
    ("gdp", "country,gdp\r\n\u00c5lborg,10\r\nK\u00f8ge,20\r\n".encode("utf-8")),
    ("train", sample_path("train.json").read_bytes().replace(b"\n", b"\r\n")),
], ids=["pairwise", "indicators", "decision", "scenario", "gdp-non-ascii", "train"])
def test_load_inputs_hashes_the_file_bytes(tmp_path, name, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    inputs, sha256 = pipeline.load_inputs({name: path})
    assert sha256 == {name: hashlib.sha256(content).hexdigest()}
    assert inputs[name] is not None


def test_load_inputs_passes_an_input_not_given():
    assert pipeline.load_inputs({"decision": None}) == ({"decision": None}, {"decision": None})


class TestWriters:
    def test_fmt6(self):
        assert io.fmt6(0.0909090909) == 0.0909091
        assert io.fmt6(70e12) == 70e12
        assert io.fmt6(float("inf")) is None
        assert io.fmt6(float("nan")) is None

    def test_config_digest_stable(self):
        a = io.config_digest({"b": 1, "a": "x"})
        b = io.config_digest({"a": "x", "b": 1})
        assert a == b
        assert a != io.config_digest({"a": "x", "b": 2})

    def test_csv_full_precision_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        value = 1 / 3
        io.write_csv(path, ("name", "value"), [("x", value)])
        text = path.read_text()
        assert text == f"name,value\nx,{value!r}\n"
        assert float(text.splitlines()[1].split(",")[1]) == value

    # an infinity is written as null only under a key the caller allows; a NaN,
    # or an infinity under any other key, is an error that writes no file
    def test_json_report_rounds_floats_only_and_nulls_non_finite(self, tmp_path):
        payload = {
            "third": 1 / 3, "np": np.float64(2 / 3), "inf": math.inf,
            "int": 123456789, "bool": True, "text": "0.123456789", "none": None,
            "nested": {"list": [1 / 7, -math.inf, 7, False, {"deep": 1e-7 / 3}],
                       "tuple": (np.float64(12345678.9), "x"),
                       "array": np.array([1 / 3, 2.0])},
        }
        path = tmp_path / "r.json"
        infinite = {"inf", "list"}
        for bad, key in [({"nan": math.nan}, "nan"), ({"deep": [math.inf]}, "deep"),
                         ({"list": [np.float64("nan")]}, "list")]:
            with pytest.raises(ValidationError, match=f"^{key!r} is "):
                io.write_json_report(path, {**payload, **bad}, infinite)
            assert not path.exists()
        io.write_json_report(path, payload, infinite)
        got = json.loads(path.read_text())
        assert got == {
            "third": 0.333333, "np": 0.666667, "inf": None,
            "int": 123456789, "bool": True, "text": "0.123456789", "none": None,
            "nested": {"list": [0.142857, None, 7, False, {"deep": 3.33333e-08}],
                       "tuple": [12345700.0, "x"],
                       "array": [0.333333, 2.0]},
        }
        assert got["bool"] is True and got["nested"]["list"][3] is False
        text = path.read_text()
        io.write_json_report(path, got, ())  # an already rounded payload is a fixed point
        assert path.read_text() == text

    def test_json_report_trailing_newline(self, tmp_path):
        path = tmp_path / "r.json"
        io.write_json_report(path, {"a": 1}, ())
        text = path.read_text()
        assert text.endswith("}\n")
        assert json.loads(text) == {"a": 1}

    def test_sample_dir_holds_all_inputs(self):
        names = {p.name for p in sample_dir().iterdir()}
        assert {"indicators.csv", "pairwise.csv", "gdp.csv", "scenario.json",
                "train.json", "config.json", "asteroids.csv"} <= names
