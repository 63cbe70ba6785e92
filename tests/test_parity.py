"""Parity of `report` and the subcommands over generated input sets.

Each example writes a small input set: a 3-12 country x 1-4 year indicator
panel with at least the 10 records sensitivity training needs (rows shuffled),
a near-consistent 7x7 comparison matrix (CR < 0.1), a GDP table, a decision
matrix with one row per country, a scenario, a train config of a few epochs and
a run config naming them all, which may leave out the income mode. `report`
and every subcommand, given flags that match the run config (and the same
`--seed`, if any), write equal payloads, `config_digest` aside; a second
`report` into a fresh directory is byte-identical. A subcommand without a flag
for the allocation or income mode writes RunConfig's default label for it
(LABELS), so that key is compared with the default. On 12 of the sets, over
every combination of income mode and allocation basis, a run writes its
reports or raises PipelineError, and `allocate` and `simulate` match its runs.
Runs are derandomized, so every run tries the same inputs.
"""

import itertools
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equimine import equity, io, mcda, mining, pipeline
from equimine.errors import PipelineError

from conftest import run_cli

PARITY = settings(max_examples=25, derandomize=True, database=None, deadline=None)


def _csv(path, rows):
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))


def write_input_set(root: Path, seed: int, countries: int, years: int) -> dict:
    """Write a generated input set and its run config under root; returns each command's
    flags that match the run config, the mode flags aside (_mode_flags): `report`'s and
    `sensitivity`'s include the same --seed, if any."""
    rng = np.random.default_rng(seed)
    names = [f"K{i}" for i in rng.permutation(countries)]
    first = int(rng.integers(1990, 2030))
    records = [(c, first + t) for c in names for t in range(years)]
    _csv(root / "indicators.csv", [("country", "year", *equity.INDICATOR_COLUMNS)] + [
        (*records[i], *map(repr, rng.uniform(0.01, 1.0, 7).tolist()))
        for i in rng.permutation(len(records))])

    v = rng.uniform(0.2, 5.0, 7)
    entries = v[:, None] / v[None, :] * np.exp(rng.uniform(-0.05, 0.05, (7, 7)))
    labels = [c.upper() for c in equity.INDICATOR_COLUMNS]
    _csv(root / "pairwise.csv", [("indicator", *labels)] + [
        (labels[i], *("1" if i == j else repr(float(entries[i, j])) if i < j
                      else repr(1 / float(entries[j, i])) for j in range(7)))
        for i in range(7)])
    assert mcda.consistency(io.load_pairwise_csv(root / "pairwise.csv")).passes

    _csv(root / "gdp.csv", [("country", "gdp")] + [
        (names[i], repr(float(rng.uniform(100.0, 5e4)))) for i in rng.permutation(countries)])
    kinds = ["benefit", "cost", "mid=50"][:int(rng.integers(1, 4))]
    _csv(root / "decision.csv", [("alt", *(f"x{j}:{k}" for j, k in enumerate(kinds)))] + [
        (names[i], *map(repr, rng.uniform(1.0, 100.0, len(kinds)).tolist()))
        for i in rng.permutation(countries)])  # the panel's countries: a `topsis` basis

    t1 = float(rng.uniform(0.0, 10.0))
    (root / "scenario.json").write_text(json.dumps({
        "name": f"case-{seed}", "dof": float(rng.uniform(1.0, 10.0)),
        "location": float(rng.uniform(0.0, 30.0)), "scale": float(rng.uniform(1.0, 10.0)),
        "total_value": float(rng.uniform(1e12, 1e14)), "cost": float(rng.uniform(0.0, 1e13)),
        "t1": t1, "t2": "inf" if rng.random() < 0.3 else t1 + float(rng.uniform(1.0, 50.0)),
    }))
    (root / "train.json").write_text(json.dumps({
        "learning_rate": float(rng.uniform(0.05, 0.5)), "epochs": int(rng.integers(1, 21)),
        "seed": int(rng.integers(0, 1000)), "layer_sizes": [7, int(rng.integers(2, 9)), 1],
    }))

    income_mode = [None, *mining.INCOME_MODES][int(rng.integers(3))]  # None: left out
    alloc_mode = ["conserve", "paper-literal"][int(rng.integers(2))]
    bottom_count, multiplier = int(rng.integers(1, countries + 1)), float(rng.uniform(1.0, 2.0))
    seed_flag = [] if rng.random() < 0.5 else ["--seed", str(int(rng.integers(0, 1000)))]
    (root / "config.json").write_text(json.dumps({
        "indicators": "indicators.csv", "pairwise": "pairwise.csv", "gdp": "gdp.csv",
        "scenario": "scenario.json", "train": "train.json", "decision": "decision.csv",
        **({} if income_mode is None else {"income_mode": income_mode}),
        "alloc_mode": alloc_mode, "alloc_basis": "equity",
        "poverty": {"bottom_count": bottom_count, "multiplier": multiplier},
    }))

    indicators, pairwise = ["--indicators", str(root / "indicators.csv")], [
        "--pairwise", str(root / "pairwise.csv")]
    scenario = ["--scenario", str(root / "scenario.json")]
    return {
        "report": ["--config", str(root / "config.json")] + seed_flag,
        "weights": pairwise,
        "consistency": pairwise,
        "topsis": ["--decision", str(root / "decision.csv")],
        "equity": indicators + pairwise,
        "simulate": scenario,
        "allocate": indicators + pairwise + scenario + [
            "--gdp", str(root / "gdp.csv"), "--decision", str(root / "decision.csv"),
            "--bottom-count", str(bottom_count), "--multiplier", repr(multiplier)],
        "correlate": indicators + pairwise,
        "sensitivity": indicators + pairwise + ["--train", str(root / "train.json")] + seed_flag,
    }


def _mode_flags(command, income_mode, alloc_basis) -> list:
    """The mode flags of `command` that match these modes (income_mode None: none given)."""
    income = [] if income_mode is None else ["--income-mode", income_mode]
    return {"allocate": income + ["--alloc-basis", alloc_basis]}.get(command, [])


def _payload(path: Path):
    """A JSON report without its config_digest; a CSV report's bytes."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload.pop("config_digest")
        return payload
    return path.read_bytes()


# The report key that holds a mode's label, and its RunConfig field, for each mode that
# only `report` sets: `simulate` has no --income-mode, and no subcommand an --alloc-mode.
LABELS = {"allocation.json": ("mode", "alloc_mode"),
          "mining.json": ("selected_mode", "income_mode")}


def _assert_same_payload(subcommand: Path, report: Path, config: pipeline.RunConfig):
    """The subcommand's report equals `report`'s, config_digest aside, but for a LABELS key:
    there the subcommand wrote RunConfig's default label, and `report` the config's."""
    written, expected = _payload(subcommand), _payload(report)
    if report.name in LABELS:
        key, field = LABELS[report.name]
        assert (written.pop(key), expected.pop(key)) == (
            getattr(pipeline.RunConfig, field), getattr(config, field)), report.name
    assert written == expected, report.name


def _invoke(args):
    code, output = run_cli(args)
    assert code == 0, (args, output)


# (countries, years) with at least 10 records
SHAPES = st.integers(3, 12).flatmap(
    lambda c: st.tuples(st.just(c), st.integers(max(1, -(-10 // c)), 4)))


@PARITY
@given(seed=st.integers(0, 2 ** 32 - 1), shape=SHAPES)
def test_report_and_subcommands_write_equal_payloads(seed, shape):
    countries, years = shape
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        subcommands = write_input_set(root, seed, countries, years)
        report_flags = subcommands.pop("report")
        for out in ("report", "again"):
            _invoke(["report", *report_flags, "--out", str(root / out)])
        report = {p.name: p.read_bytes() for p in (root / "report").iterdir()}
        assert report == {p.name: p.read_bytes() for p in (root / "again").iterdir()}
        config = json.loads((root / "config.json").read_text())
        run_config = pipeline.load_run_config(root / "config.json")
        covered = set()
        for command, flags in subcommands.items():
            out = root / command
            _invoke([command, *flags, *_mode_flags(command, config.get("income_mode"),
                                                   config["alloc_basis"]), "--out", str(out)])
            for path in out.iterdir():
                _assert_same_payload(path, root / "report" / path.name, run_config)
                covered.add(path.name)
        assert covered == set(report)


# Income mode x allocation basis: 4 full runs per set, so the grid takes fewer sets than
# PARITY to keep the suite's time in bounds. The run config's alloc_mode, drawn per set,
# stays as it is.
GRID = list(itertools.product(mining.INCOME_MODES, pipeline.ALLOC_BASES))
GRID_SETS = settings(PARITY, max_examples=12)


@GRID_SETS
@given(seed=st.integers(0, 2 ** 32 - 1), shape=SHAPES)
def test_every_mode_combination_runs_or_fails_in_a_stage(seed, shape):
    # each combination over the run config; allocate given the same modes, and simulate,
    # write each run's payloads
    countries, years = shape
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        subcommands = write_input_set(root, seed, countries, years)
        config = pipeline.load_run_config(root / "config.json")
        for i, (income_mode, basis) in enumerate(GRID):
            run, run_config = root / f"run{i}", replace(config, income_mode=income_mode,
                                                        alloc_basis=basis)
            try:
                pipeline.run_pipeline(run_config, run)
            except PipelineError:  # any other exception fails the test
                continue
            for command, name in [("allocate", "allocation.json"), ("simulate", "mining.json")]:
                out = run / command
                _invoke([command, *subcommands[command],
                         *_mode_flags(command, income_mode, basis), "--out", str(out)])
                _assert_same_payload(out / name, run / name, run_config)
