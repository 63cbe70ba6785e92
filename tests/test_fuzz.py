"""Fuzzing over mutated copies of the bundled sample inputs.

A mutated input either loads or raises an EquimineError, never another
exception; `equimine report` on a mutated run config exits 0, or prints the
error JSON and exits 1, never a traceback. A number field holding a bool or a
string, and a CSV number holding a digit-group '_', must be rejected: both once
loaded silently as another number, and are kept below as explicit examples. So
must a JSON key that the input's field table lacks, such as a misspelled one,
which was once dropped for the field's default.
A generated near-reciprocal pairwise matrix either gives weights and CR or
raises an EquimineError, with no RuntimeWarning.
Runs are derandomized, so every run tries the same inputs.
"""

import csv
import io as stdio
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equimine import io
from equimine.data import sample_path
from equimine.errors import EquimineError, ParseError
from equimine.mcda import METHODS, PairwiseMatrix, consistency, derive_weights

from conftest import run_cli

FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None)

CSV_LOADERS = {
    "pairwise.csv": io.load_pairwise_csv,
    "asteroids.csv": io.load_decision_csv,
    "indicators.csv": io.load_indicator_table,
    "gdp.csv": io.load_gdp_csv,
}
JSON_LOADERS = {
    "scenario.json": io.load_scenario,
    "anteros.json": io.load_scenario,
    "train.json": io.load_train_config,
}
# The float fields each JSON loader reads; a bool or a string there is an error,
# except t2's "inf".
REAL_FIELDS = {
    io.load_scenario: {"dof", "location", "scale", "total_value", "cost", "t1", "t2"},
    io.load_train_config: {"learning_rate"},
}
# Each JSON loader's field table; any other key, a misspelling included, is an error.
FIELD_TABLES = {io.load_scenario: io.SCENARIO_FIELDS, io.load_train_config: io.TRAIN_FIELDS}
JSON_KEYS = sorted({"name", "mode", "epochs", "seed", "layer_sizes", "doff", "epoch"}.union(
    *REAL_FIELDS.values()))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats()
    | st.text(max_size=6) | st.sampled_from(["inf", "5", "1_0", "cumulative"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)
CELL_TOKENS = st.sampled_from(
    ["", " ", "0", "-1", "1/3", "1/0", "0/0", "1e400", "-1e400", "1e-400", "nan", "inf", "1e308",
     "x", "1_0", "0_6961", "20_17", "1_0/3", "9" * 40, "1,5", '"', "mid=2"]
) | st.text(alphabet="0123456789.-+e/_ ", max_size=6)


def _loads_or_rejects(loader, path):
    """Run the loader; an EquimineError is a rejection, any other exception fails."""
    try:
        loader(path)
    except EquimineError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(name=st.sampled_from(sorted({**CSV_LOADERS, **JSON_LOADERS})),
       edits=st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                                st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_mutated_bytes_load_or_raise_a_toolkit_error(workdir, name, edits):
    data = bytearray(sample_path(name).read_bytes())
    for op, at, byte in edits:
        at %= len(data) + 1
        if op == "insert":
            data.insert(at, byte)
        elif data and at < len(data):
            if op == "flip":
                data[at] ^= byte or 1
            else:
                del data[at]
    path = workdir / name
    path.write_bytes(bytes(data))
    _loads_or_rejects({**CSV_LOADERS, **JSON_LOADERS}[name], path)


@FUZZ
@given(name=st.sampled_from(sorted(CSV_LOADERS)), row=st.integers(0, 99),
       column=st.integers(0, 9), token=CELL_TOKENS)
@example(name="indicators.csv", row=0, column=1, token="0_6961").via("6961.0, not 0.6961")
@example(name="gdp.csv", row=0, column=0, token="1_000").via("GDP 1000.0")
@example(name="pairwise.csv", row=0, column=1, token="1_0/3").via("ratio 10/3")
@example(name="pairwise.csv", row=0, column=1, token="1e308").via("an overflow warning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutated_csv_numbers_load_or_raise_a_toolkit_error(workdir, name, row, column, token):
    # row and column pick a number cell: a body row, and any column past the label
    rows = list(csv.reader(sample_path(name).read_text().splitlines()))
    row, column = 1 + row % (len(rows) - 1), 1 + column % (len(rows[0]) - 1)
    rows[row][column] = token
    text = stdio.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    path = workdir / name
    path.write_text(text.getvalue())
    if "_" in token:
        with pytest.raises(ParseError, match=f"^line {row + 1}: "):
            CSV_LOADERS[name](path)
    else:
        _loads_or_rejects(CSV_LOADERS[name], path)


@FUZZ
@given(name=st.sampled_from(sorted(JSON_LOADERS)), key=st.sampled_from(JSON_KEYS),
       value=JSON_VALUES)
@example(name="scenario.json", key="dof", value=True).via("dof 1.0")
@example(name="scenario.json", key="cost", value=False).via("cost 0")
@example(name="anteros.json", key="total_value", value="7_0e12").via("total value 7e13")
@example(name="train.json", key="learning_rate", value=True).via("learning rate 1.0")
@example(name="train.json", key="epoch", value=10).via("the default 5000 epochs")
@example(name="scenario.json", key="doff", value=3).via("the default dof 5")
def test_mutated_json_fields_load_or_raise_a_toolkit_error(workdir, name, key, value):
    loader = JSON_LOADERS[name]
    raw = json.loads(sample_path(name).read_text())
    path = workdir / name
    path.write_text(json.dumps({**raw, key: value}))
    if key in REAL_FIELDS[loader] and (isinstance(value, bool) or isinstance(value, str)
                                       and (key, value) != ("t2", "inf")):
        with pytest.raises(ParseError, match=f"field '{key}'"):
            loader(path)
    elif key not in FIELD_TABLES[loader]:
        with pytest.raises(ParseError, match=f"unknown field '{key}'"):
            loader(path)
    else:
        _loads_or_rejects(loader, path)


# A 7x7 matrix's 21 upper entries: Saaty judgements or any ratio near 1, some scaled
# by one magnitude per matrix, so a column can hold several huge or tiny entries.
# Each lower entry is the reciprocal of its upper entry times 1 + a slip, on either
# side of the 1e-9 reciprocity tolerance.
UPPER = st.lists(st.sampled_from([1 / 9, 1 / 7, 1 / 5, 1 / 3, 1.0, 3.0, 5.0, 7.0, 9.0])
                 | st.floats(1e-3, 1e3), min_size=21, max_size=21)
SCALED = st.lists(st.booleans(), min_size=21, max_size=21)
MAGNITUDES = st.sampled_from([1.0, 1e50, 1e99, 1e101, 1e154, 1e300, 1e308, 1e-99, 1e-300])
SLIPS = st.lists(st.sampled_from([0.0, 1e-15, -1e-12, 5e-10, -9e-10, 1.1e-9, -2e-9, 1e-6]),
                 min_size=21, max_size=21)


@FUZZ
@given(upper=UPPER, scaled=SCALED, magnitude=MAGNITUDES, slips=SLIPS)
@example(upper=[1.0] * 21, scaled=[True] * 21, magnitude=1e308,
         slips=[0.0] * 21).via("an overflowing column sum")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_near_reciprocal_matrices_give_weights_and_cr_or_a_toolkit_error(upper, scaled,
                                                                         magnitude, slips):
    # Python floats: a product past the float range is inf here, not a warning
    upper = [u * magnitude if s else u for u, s in zip(upper, scaled)]
    entries = np.ones((7, 7))
    iu, ju = np.triu_indices(7, k=1)
    entries[iu, ju] = upper
    entries[ju, iu] = [(1 / u) * (1 + slip) for u, slip in zip(upper, slips)]
    try:
        matrix = PairwiseMatrix(entries)
        report = consistency(matrix)
        weights = [derive_weights(matrix, method).weights for method in METHODS]
    except EquimineError:
        return
    assert 0 <= report.cr < math.inf
    for w in weights:
        assert np.all(w >= 0) and abs(w.sum() - 1) <= 1e-9


# Run config fields with values a user might write, wrong ones included, plus any JSON.
FILES = st.sampled_from(["indicators.csv", "pairwise.csv", "gdp.csv", "scenario.json",
                         "asteroids.csv", "train.json", "missing.csv"])
RUN_CONFIG_FIELDS = {
    "indicators": FILES, "pairwise": FILES, "gdp": FILES, "scenario": FILES, "train": FILES,
    "decision": FILES,
    "income_mode": st.sampled_from(["cumulative", "paper-literal", "fast"]),
    "alloc_mode": st.sampled_from(["conserve", "paper-literal", "fair"]),
    "alloc_basis": st.sampled_from(["equity", "topsis", "gdp"]),
    "seed": st.integers(-1, 2 ** 64),
    "sed": st.integers(0, 9),  # a misspelled seed
    "poverty.bottom_count": st.integers(-1, 7),
    "poverty.multiplier": st.floats(0.5, 5.0) | st.sampled_from([1e308, "1.2", True]),
    "poverty": st.builds(dict),  # a fresh empty object: the edits below may fill it
}
RUN_CONFIG_EDITS = st.lists(st.sampled_from(sorted(RUN_CONFIG_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), RUN_CONFIG_FIELDS[key] | JSON_VALUES)),
    min_size=1, max_size=2)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A directory holding the sample inputs, train.json cut to five epochs."""
    directory = tmp_path_factory.mktemp("report")
    for name in ("indicators.csv", "pairwise.csv", "gdp.csv", "scenario.json", "asteroids.csv"):
        (directory / name).write_bytes(sample_path(name).read_bytes())
    train = json.loads(sample_path("train.json").read_text())
    (directory / "train.json").write_text(json.dumps({**train, "epochs": 5}))
    return directory


@FUZZ
@given(edits=RUN_CONFIG_EDITS)
@example(edits=[("poverty.multiplier", True)]).via("multiplier 1.0")
@example(edits=[("sed", 3)]).via("the train config's seed")
def test_report_on_mutated_run_configs_exits_0_or_prints_the_error_json(run_dir, edits):
    config = json.loads(sample_path("config.json").read_text())
    for key, value in edits:
        if key.startswith("poverty.") and isinstance(config.get("poverty"), dict):
            config["poverty"][key.split(".")[1]] = value
        elif not key.startswith("poverty."):
            config[key] = value
    path = run_dir / "config.json"
    path.write_text(json.dumps(config))
    code, output = run_cli(["report", "--config", str(path), "--out", str(run_dir / "out")])
    poverty = config.get("poverty")
    mistyped = isinstance(poverty, dict) and isinstance(poverty.get("multiplier"), (bool, str))
    mistyped |= "sed" in config
    if code == 0 and not mistyped:
        return
    assert code == 1, output
    assert set(json.loads(output)) == {"error"}
