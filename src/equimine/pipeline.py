"""Batch pipeline: one run object, and one function per stage over it.

`Run` holds a run's parsed inputs and its `RunConfig`. Each stage function
takes a `Run` and returns its reports by file name (a JSON report is a dict of raw values,
which `io.write_json_report` rounds; a CSV report a (header, rows) pair). `run_pipeline`
runs stage `config`, then `STAGES` in order; a subcommand runs one of them through
`run_stage`, so both write the same payloads.

Each policy the entry points share is one property of `Run`, whose docstring states it.
"""

import hashlib
import logging
import os
import shutil
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import allocation, equity, io, mcda, mining, sensnet, stats, topsis
from .errors import EquimineError, PipelineError, ValidationError, as_integer, as_real

log = logging.getLogger(__name__)

VARIATION_BAND = 0.07  # advertised robustness band for the perturbation sweep

ALLOC_BASES = ("equity", "topsis")

# The only infinities a report may hold, written as null: an open scenario window's end,
# and the t statistic of a correlation with |r| = 1. Any other non-finite value is an error.
INFINITE_KEYS = {"mining.json": {"t2"}, "correlation.json": {"t_stat"}}

# Columns of topsis.csv, and the keys of each alternative in topsis.json.
TOPSIS_COLUMNS = ("label", "d_plus", "d_minus", "s", "s_normalized", "rank")


# Each input file's io loader, in stage order; a run config names all but `decision`.
INPUT_FILES = {"pairwise": "load_pairwise_csv", "indicators": "load_indicator_table",
               "decision": "load_decision_csv", "scenario": "load_scenario",
               "gdp": "load_gdp_csv", "train": "load_train_config"}


@dataclass
class RunConfig:
    paths: dict  # input name (INPUT_FILES) -> Path; None for an absent decision
    income_mode: str = mining.DEFAULT_INCOME_MODE
    alloc_mode: str = allocation.DEFAULT_ALLOC_MODE
    alloc_basis: str = "equity"
    bottom_count: int = allocation.PovertyPolicy.bottom_count
    multiplier: float = allocation.PovertyPolicy.multiplier
    seed: int = None  # None: the train config's seed

    def __post_init__(self):
        self.poverty = allocation.PovertyPolicy(self.bottom_count, self.multiplier)
        self.bottom_count = self.poverty.bottom_count  # normalised: 3.0 -> 3
        for what, value, known in [("income mode", self.income_mode, mining.INCOME_MODES),
                                   ("allocation mode", self.alloc_mode, allocation.ALLOC_MODES),
                                   ("allocation basis", self.alloc_basis, ALLOC_BASES)]:
            if value not in known:
                raise ValidationError(f"unknown {what} {value!r}")
        if self.seed is not None:
            sensnet.TrainConfig(seed=self.seed)  # the training seed's own rule

    def digest(self, sha256: dict) -> str:
        """The digest of the settings, with `sha256` (each input's bytes' hash) for the paths."""
        return io.config_digest({k: v for k, v in asdict(self).items() if k != "paths"} | sha256)


# Each run-config field: an input's path (`decision`'s optional), or a RunConfig setting.
RUN_FIELDS = {
    **dict.fromkeys(INPUT_FILES, (None, Path)),
    "decision": (None, lambda value: None if value is None else Path(value)),
    **{key: (getattr(RunConfig, key), lambda value: value)  # RunConfig checks the modes
       for key in ("income_mode", "alloc_mode", "alloc_basis")},
    "poverty": ({}, lambda value: value),  # an object, read by POVERTY_FIELDS
}
POVERTY_FIELDS = {key: (getattr(RunConfig, key), convert)
                  for key, convert in [("bottom_count", as_integer), ("multiplier", as_real)]}


def load_run_config(path) -> RunConfig:
    """Read a JSON run config by RUN_FIELDS, input paths resolved against its dir, and let
    RunConfig check the settings. Malformed JSON, an unknown, missing or mistyped field raise
    ParseError, a repeated key or another bad setting ValidationError. Reads no input."""
    path = Path(path)
    fields = io.read_fields(io.read_json_object(path, "run config"), "run config", RUN_FIELDS)
    paths = {k: None if (p := fields.pop(k)) is None else path.parent / p for k in INPUT_FILES}
    poverty = io.read_fields(fields.pop("poverty"), "run config poverty", POVERTY_FIELDS)
    return RunConfig(paths, **poverty, **fields)


def load_inputs(paths: dict) -> tuple:
    """Read each file of `paths` (input name -> path, or None) once, in that order, with
    its INPUT_FILES loader, looked up on io per call. Returns ({name: parsed input},
    {name: sha256 of the file's bytes}), None for an input without a path."""
    inputs, sha256 = {}, {}
    for name, path in paths.items():
        hasher = hashlib.sha256()
        inputs[name] = None if path is None else getattr(io, INPUT_FILES[name])(path, hasher)
        sha256[name] = None if path is None else hasher.hexdigest()
    return inputs, sha256


@contextmanager
def _stage(name):
    """Run stage `name`: log its start, and its end with its duration, at INFO;
    log a toolkit error raised inside at ERROR and report it as a PipelineError
    of that stage."""
    log.info("stage %s started", name)
    start = time.perf_counter()
    try:
        yield
    except PipelineError as exc:
        log.error("stage %s failed: %s", name, exc.message)
        raise
    except EquimineError as exc:
        log.error("stage %s failed: %s", name, exc)
        raise PipelineError(name, str(exc)) from exc
    log.info("stage %s finished in %.3f s", name, time.perf_counter() - start)


def write_reports(out_dir, digest: str, reports: dict) -> dict:
    """Write every report into out_dir, or none: all go to a fresh hidden directory in
    out_dir, then each is renamed into place, the report it replaces moved into that
    directory first and moved back if a rename fails. JSON reports lead with the config
    digest. Returns {file name: Path}; an OSError, a path the filesystem refuses or a
    directory holding a report's name raises PipelineError("write", ...) naming out_dir,
    and a NaN, or an infinity outside INFINITE_KEYS, one naming the file and the key."""
    out, staging, renamed = Path(out_dir), None, []
    try:
        out.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".equimine-", dir=out))
        for name, content in reports.items():
            if isinstance(content, dict):
                io.write_json_report(staging / name, {"config_digest": digest, **content},
                                     INFINITE_KEYS.get(name, ()))
            else:
                io.write_csv(staging / name, *content)
        if blocked := [name for name in reports if (out / name).is_dir()]:
            raise PipelineError("write", f"cannot write reports into {out}: directory {blocked}")
        for name in reports:
            if (out / name).exists():
                os.replace(out / name, staging / f"{name}.old")
            renamed.append(name)
            os.replace(staging / name, out / name)
        renamed = []  # every report is in place: nothing to undo
    except ValidationError as exc:  # a non-finite value in report `name`
        raise PipelineError("write", f"{name}: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL byte, say
        raise PipelineError("write", f"cannot write reports into {out}: {exc}") from exc
    finally:
        for name in renamed:  # a failed rename: put the old reports back, remove the new
            with suppress(OSError):
                if (staging / f"{name}.old").exists():
                    os.replace(staging / f"{name}.old", out / name)
                else:
                    (out / name).unlink()
        if staging:
            shutil.rmtree(staging, ignore_errors=True)
    return {name: out / name for name in reports}


class Run:
    """A run's parsed inputs (input name -> parsed input, None if not given) and its
    RunConfig; each value the stages share is computed on first use."""

    def __init__(self, inputs: dict, config: RunConfig):
        self.inputs, self.config = dict.fromkeys(INPUT_FILES) | inputs, config

    @cached_property
    def consistency(self):  # the comparison matrix's CI and CR
        return mcda.consistency(self.inputs["pairwise"])

    @cached_property
    def weights_by_method(self) -> dict:  # the comparison matrix's weights by each AHP method
        return {m: mcda.derive_weights(self.inputs["pairwise"], m).weights for m in mcda.METHODS}

    @cached_property
    def weights(self):
        """The mean AHP weights of the comparison matrix; the shipped defaults without one."""
        if self.inputs["pairwise"] is None:
            return equity.DEFAULT_SCORE_WEIGHTS
        return np.mean(list(self.weights_by_method.values()), axis=0)

    @cached_property
    def indicator_weights(self):
        """`weights`, which fall on the seven indicators by position: a 7-criterion matrix's
        labels, lowercased, must be INDICATOR_COLUMNS in order."""
        matrix, columns = self.inputs["pairwise"], list(equity.INDICATOR_COLUMNS)
        labels = [] if matrix is None else matrix.labels
        if len(labels) == len(columns) and [str(x).lower() for x in labels] != columns:
            raise ValidationError(f"the comparison matrix's criteria {labels} must be the "
                                  f"indicators {columns}, in that order")
        return self.weights

    @cached_property
    def scores(self) -> np.ndarray:
        """scores[c, t]: the development score of the panel's countries[c] in years[t]."""
        return equity.development_scores(self.inputs["indicators"].values, self.indicator_weights)

    @property
    def records(self) -> tuple:
        """(indicator rows, score series) of every record, in panel order."""
        values = self.inputs["indicators"].values
        return values.reshape(-1, len(equity.INDICATOR_COLUMNS)), self.scores.ravel()

    @cached_property
    def ranking(self) -> tuple:
        """(decision matrix, TopsisScores): a given decision matrix under equal weights,
        else the countries' latest-year indicators under the AHP weights."""
        decision, weights = self.inputs["decision"], None  # None: equal weights
        if decision is None:
            table, weights = self.inputs["indicators"], self.indicator_weights
            decision = topsis.DecisionMatrix(
                values=table.values[:, -1],
                alternative_labels=table.countries,
                indicator_kinds=[topsis.IndicatorKind("benefit")] * len(equity.INDICATOR_COLUMNS),
                indicator_labels=list(equity.INDICATOR_COLUMNS),
            )
        return decision, topsis.rank_alternatives(decision, weights=weights)

    @cached_property
    def revenue(self) -> dict:
        """Income and profit by mode, and the selected mode: the config's."""
        params, window, _ = self.inputs["scenario"]
        incomes = {m: mining.income(window, params, m) for m in mining.INCOME_MODES}
        return {"income": incomes,
                "profit": {m: mining.profit(incomes[m], window.cost) for m in mining.INCOME_MODES},
                "selected_mode": self.config.income_mode}

    @cached_property
    def gammas(self) -> dict:
        """Each country's poverty multiplier; the GDP table must hold the panel's countries."""
        gammas = allocation.poverty_multipliers(self.inputs["gdp"], self.config.poverty)
        if set(gammas) != set(self.inputs["indicators"].countries):
            raise ValidationError("GDP table countries do not match the indicator table")
        return gammas

    @property
    def basis(self) -> dict:
        """Each country's latest-year score ('equity') or scaled TOPSIS closeness ('topsis')."""
        countries = self.inputs["indicators"].countries
        if self.config.alloc_basis == "equity":
            return dict(zip(countries, self.scores[:, -1].tolist()))
        decision, ranked = self.ranking
        basis = dict(zip(decision.alternative_labels, ranked.s_normalized.tolist()))
        if set(basis) != set(countries):
            raise ValidationError(
                "allocation basis 'topsis' needs the ranking to cover the same countries"
            )
        return basis


def consistency_stage(run):
    """CI/CR consistency check of the comparison matrix."""
    return {"consistency.json": {"labels": run.inputs["pairwise"].labels,
                                 **asdict(run.consistency)}}


def weights_stage(run):
    """Weights by every AHP method, and their mean."""
    return {"weights.json": {
        "labels": run.inputs["pairwise"].labels,
        "methods": run.weights_by_method,
        "mean": run.weights,
    }}


def equity_stage(run):
    """Per-country score series and the global equity index."""
    countries, years = run.inputs["indicators"].countries, run.inputs["indicators"].years
    ge = equity.global_equity_index(run.scores.T, countries=countries, years=years)
    return {"equity.json": {
        "countries": countries,
        "years": years,
        "scores": [
            {"country": c,
             "series": [{"year": y, "score": score} for y, score in zip(years, series)]}
            for c, series in zip(countries, run.scores.tolist())
        ],
        "global_equity_index": ge,
    }}


def topsis_stage(run):
    """The ranking by closeness to the ideal; topsis.csv holds TOPSIS_COLUMNS at full precision."""
    decision, ranked = run.ranking
    ranks = (np.argsort(ranked.ranking) + 1).tolist()  # each alternative's place in the ranking
    rows = list(zip(decision.alternative_labels, ranked.d_plus.tolist(), ranked.d_minus.tolist(),
                    ranked.s.tolist(), ranked.s_normalized.tolist(), ranks))
    return {"topsis.json": {
        "indicators": decision.indicator_labels,
        "alternatives": [dict(zip(TOPSIS_COLUMNS, r)) for r in rows],
        "ranking": [decision.alternative_labels[i] for i in ranked.ranking],
    }, "topsis.csv": (TOPSIS_COLUMNS, rows)}


def mining_stage(run):
    """The scenario, and its income and profit in both income modes."""
    params, window, name = run.inputs["scenario"]
    return {"mining.json": {"scenario": name, **asdict(params), "window": asdict(window),
                            **run.revenue}}


def allocation_stage(run):
    """Split the selected mode's profit by basis score, boosted by the poverty
    multipliers. A loss allocates nothing: total_profit 0 and every share 0."""
    profit = run.revenue["profit"][run.revenue["selected_mode"]]
    alloc_mode = run.config.alloc_mode
    result = allocation.allocate(max(profit, 0.0), run.basis, run.gammas, mode=alloc_mode)
    return {"allocation.json": {
        "basis": run.config.alloc_basis,
        "mode": alloc_mode,
        "total_profit": result.total_profit,
        "over_allocation": result.over_allocation,
        "shares": [
            {"country": s.label, "gamma": s.gamma, "raw_share": s.raw_share,
             "conserved_share": s.conserved_share}
            for s in result.shares
        ],
    }}


def correlation_stage(run):
    """Pearson r and t test of each indicator against the scores."""
    x, series = run.records
    per_indicator = []
    for j, name in enumerate(equity.INDICATOR_COLUMNS):
        result = stats.t_test(stats.pearson(np.array(x[:, j]), series), len(series))
        fields = {k: v for k, v in asdict(result).items() if k != "n"}  # n: once, at the top
        direction = "positive" if result.r > 0 else ("negative" if result.r < 0 else "zero")
        per_indicator.append({"indicator": name, **fields, "direction": direction})
    return {"correlation.json": {"alpha": stats.DEFAULT_ALPHA, "n": len(series),
                                 "indicators": per_indicator}}


def sensitivity_stage(run):
    """Train the sensitivity network on (indicators -> scaled scores) and sweep its
    weights; the config's seed (--seed), when set, overrides the train config's."""
    x, series = run.records
    train = run.inputs["train"]
    if run.config.seed is not None:
        train = replace(train, seed=run.config.seed)
    sweep = sensnet.sensitivity_sweep(x, scale_targets(series), train, equity.INDICATOR_COLUMNS)
    named = [(n, float(v)) for n, v in zip(equity.INDICATOR_COLUMNS, sweep.sensitivities)]
    return {
        "sensitivity.csv": (("indicator", "value"), named),
        "perturbation.csv": (("weight_id", "w", "output"), sweep.perturbation_rows),
        "sensitivity.json": {
            "seed": train.seed, "epochs": train.epochs, "learning_rate": train.learning_rate,
            "layer_sizes": list(train.layer_sizes), "final_loss": sweep.final_loss,
            "sensitivities": [{"indicator": n, "value": v} for n, v in named],
            "max_output_variation": sweep.max_variation,
            "variation_band": VARIATION_BAND,
            "within_band": bool(sweep.max_variation <= VARIATION_BAND),
        },
    }


# Each stage's function, in run order: it takes a Run and returns its reports.
STAGES = {"consistency": consistency_stage, "weights": weights_stage, "equity": equity_stage,
          "topsis": topsis_stage, "mining": mining_stage, "allocation": allocation_stage,
          "correlation": correlation_stage, "sensitivity": sensitivity_stage}


def run_pipeline(config, out_dir, **overrides) -> dict:
    """Run every stage, then write every report they return into out_dir at once. Stage `config`,
    before any stage computes, reads `config` if it is a run-config JSON path, not a
    RunConfig; lets each override that is not None (income_mode, alloc_mode, alloc_basis,
    seed) replace its field; reads every input; and checks the poverty policy against the
    GDP table and the panel's size against sensnet.MIN_SAMPLES. Returns {artifact name:
    Path}. A PipelineError names the failing stage; a failed run leaves out_dir as it was."""
    with _stage("config"):
        config = config if isinstance(config, RunConfig) else load_run_config(config)
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
        inputs, sha256 = load_inputs(config.paths)
        run = Run(inputs, config)
        run.gammas  # the poverty policy, checked against the GDP table and the panel
        if (records := inputs["indicators"].values[..., 0].size) < sensnet.MIN_SAMPLES:
            raise ValidationError(f"the indicator table has {records} records; the sensitivity "
                                  f"network needs at least {sensnet.MIN_SAMPLES}")
    reports = {}
    for name, stage in STAGES.items():
        with _stage(name):
            reports |= stage(run)
            if name == "consistency" and not run.consistency.passes:
                raise PipelineError("consistency", "comparison matrix failed the consistency "
                                    f"check (CR = {run.consistency.cr:.4f} >= {mcda.CR_LIMIT})",
                                    {"cr": run.consistency.cr})
    return write_reports(out_dir, config.digest(sha256), reports)


def run_stage(stage: str, flags: dict, out_dir) -> dict:
    """Run one stage of STAGES for its subcommand and write its reports into out_dir.
    `flags` holds input paths (None for an input not given) by INPUT_FILES name, and
    RunConfig settings, of which each None keeps RunConfig's default. The stage reads the
    inputs and checks the settings; the digest is RunConfig.digest, as in run_pipeline."""
    settings = dict(flags)
    paths = {name: settings.pop(name) for name in INPUT_FILES if name in settings}
    with _stage(stage):
        inputs, sha256 = load_inputs(paths)
        config = RunConfig(paths, **{k: v for k, v in settings.items() if v is not None})
        reports = STAGES[stage](Run(inputs, config))
    return write_reports(out_dir, config.digest(sha256), reports)


def scale_targets(y: np.ndarray) -> np.ndarray:
    # Sigmoid output lives in (0, 1); map scores into [0.2, 0.8] to avoid
    # saturated targets. Constant scores map to 0.5.
    lo, hi = y.min(), y.max()
    if hi == lo:
        return np.full_like(y, 0.5)
    return 0.2 + 0.6 * (y - lo) / (hi - lo)
