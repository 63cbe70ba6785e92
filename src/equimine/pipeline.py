"""Batch pipeline: one function per stage, chained by `run_pipeline`.

Each stage function takes parsed inputs and returns its reports, keyed by file
name, plus any values later stages need. A JSON report is a dict of raw values,
which `io.write_json_report` rounds; a CSV report is a (header, rows) pair.
`run_pipeline` (the `report` command) chains the stage functions, and every CLI
subcommand calls the same function for its stage, so both write the same
payloads.

Shared policies:

* Inputs: `load_inputs` reads each input file once and hashes its bytes, which a
  config digest hashes with the settings, never a path; `report` reads in `config`.
* Weights: the mean of a comparison matrix's AHP weights when a matrix is
  given, the shipped defaults otherwise (`weighted_panel`).
* Record order: panel order, i.e. countries in file order x sorted years
  (`Panel`).
* Income mode: an explicit mode (the --income-mode flag, else the run
  config's `income_mode`), else the scenario's `mode`, which defaults to
  cumulative (`mining_stage`).
* Stage boundaries: `_stage` names the stage of any toolkit error raised
  inside it and logs the stage to the `equimine.pipeline` logger.
"""

import hashlib
import logging
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import allocation, equity, io, mcda, mining, sensnet, stats, topsis
from .errors import EquimineError, ParseError, PipelineError, ValidationError, as_integer, as_real

log = logging.getLogger(__name__)

VARIATION_BAND = 0.07  # advertised robustness band for the perturbation sweep

REPORT_FILES = (
    "consistency.json",
    "weights.json",
    "equity.json",
    "topsis.json",
    "mining.json",
    "allocation.json",
    "correlation.json",
    "sensitivity.csv",
    "perturbation.csv",
    "sensitivity.json",
)

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
    income_mode: str = None  # None: the scenario's mode decides
    alloc_mode: str = allocation.DEFAULT_ALLOC_MODE
    alloc_basis: str = "equity"
    poverty: allocation.PovertyPolicy = field(default_factory=allocation.PovertyPolicy)
    seed: int = None

    def __post_init__(self):
        if self.income_mode not in (None, *mining.INCOME_MODES):
            raise ValidationError(f"unknown income mode {self.income_mode!r}")
        if self.alloc_mode not in allocation.ALLOC_MODES:
            raise ValidationError(f"unknown allocation mode {self.alloc_mode!r}")
        if self.alloc_basis not in ALLOC_BASES:
            raise ValidationError(f"unknown allocation basis {self.alloc_basis!r}")
        if self.seed is not None:
            sensnet.TrainConfig(seed=self.seed)  # the training seed's own rule

    def digest(self, sha256: dict) -> str:
        """The digest of the flat settings (the poverty fields at the top level) and
        `sha256`, each input's hash of its bytes, in place of the paths."""
        settings = asdict(replace(self, paths=sha256))
        settings |= settings.pop("poverty") | settings.pop("paths")
        return io.config_digest(settings)


def load_run_config(path, **overrides) -> RunConfig:
    """Read a JSON run config and check every setting: paths (resolved against the
    file's dir), modes, poverty policy and seed. Keyword overrides (income_mode,
    alloc_mode, alloc_basis, seed, ...) win over file values when not None. Malformed
    JSON or mistyped values raise ParseError, other bad settings ValidationError; the
    input files are read by run_pipeline."""
    path = Path(path)
    raw = io.read_json_object(path, "run config")
    paths = {}
    for key in INPUT_FILES:
        if (value := raw.get(key)) is None and key != "decision":
            raise ValidationError(f"run config is missing {key!r}")
        if not isinstance(value, (str, type(None))):
            raise ParseError(f"run config field {key!r} must be a path, got {value!r}")
        paths[key] = None if value is None else path.parent / value
    poverty = raw.get("poverty", {})
    if not isinstance(poverty, dict):
        raise ParseError(f"run config field 'poverty' must be an object, got {poverty!r}")
    config = RunConfig(
        paths,
        income_mode=raw.get("income_mode"),
        alloc_mode=raw.get("alloc_mode", RunConfig.alloc_mode),
        alloc_basis=raw.get("alloc_basis", RunConfig.alloc_basis),
        poverty=allocation.PovertyPolicy(**{
            key: io.json_field(poverty, "run config poverty", key,
                               getattr(allocation.PovertyPolicy, key), convert)
            for key, convert in (("bottom_count", as_integer), ("multiplier", as_real))}),
        seed=io.json_field(raw, "run config", "seed", None,
                           lambda v: None if v is None else as_integer(v)),
    )
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


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
    """Write every report into out_dir, or none: each goes to a temporary name,
    and all are renamed into place once every one is written. JSON reports lead
    with the config digest. Returns {file name: Path}; an OSError, or a directory
    holding a report's name, raises PipelineError("write", ...) naming out_dir, and a
    NaN, or an infinity outside INFINITE_KEYS, one naming the file and the key."""
    out = Path(out_dir)
    staged = {}  # final path -> temporary path, until renamed
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in reports.items():
            tmp = out / f".{name}.{os.getpid()}.tmp"
            open(tmp, "x").close()  # claim the name: cleanup removes only files made here
            staged[out / name] = tmp
            if isinstance(content, dict):
                io.write_json_report(tmp, {"config_digest": digest, **content},
                                     INFINITE_KEYS.get(name, ()))
            else:
                io.write_csv(tmp, *content)
        if blocked := [path.name for path in staged if path.is_dir()]:
            raise PipelineError("write", f"cannot write reports into {out}: directory {blocked}")
        for path in list(staged):
            os.replace(staged[path], path)
            del staged[path]
    except OSError as exc:
        raise PipelineError("write", f"cannot write reports into {out}: {exc}") from exc
    except ValidationError as exc:  # a non-finite value in report `name`
        raise PipelineError("write", f"{name}: {exc}") from exc
    finally:  # after a failure, remove the temporaries not yet renamed
        for tmp in staged.values():
            with suppress(OSError):
                tmp.unlink()
    return {name: out / name for name in reports}


def consistency_stage(matrix):
    """CI/CR consistency check. Returns (reports, ConsistencyReport)."""
    report = mcda.consistency(matrix)
    return {"consistency.json": {"labels": matrix.labels, **asdict(report)}}, report


def weights_stage(matrix):
    """Weights by every AHP method. Returns (reports, mean weight vector)."""
    by_method = {m: mcda.derive_weights(matrix, m).weights for m in mcda.METHODS}
    mean_weights = np.mean(list(by_method.values()), axis=0)
    return {"weights.json": {
        "labels": matrix.labels,
        "methods": by_method,
        "mean": mean_weights,
    }}, mean_weights


@dataclass
class Panel:
    """A complete indicator panel scored under one weight vector: scores[c, t]
    is the development score of table.countries[c] in table.years[t]."""

    table: io.IndicatorTable
    scores: np.ndarray  # (countries, years)

    def latest_scores(self) -> dict:
        """Each country's score in the panel's latest year."""
        return dict(zip(self.table.countries, self.scores[:, -1].tolist()))

    @property
    def records(self):
        """(indicator rows, score series) of every record, in panel order."""
        return self.table.values.reshape(-1, len(io.INDICATOR_COLUMNS)), self.scores.ravel()


def score_panel(table, weights) -> Panel:
    """Score every record of a complete panel with the given weights."""
    return Panel(table, equity.development_scores(table.values, weights))


def weighted_panel(table, matrix=None) -> Panel:
    """Score an indicator table under the weights policy: the mean AHP weights of a
    comparison matrix, or the shipped defaults without one."""
    weights = equity.DEFAULT_SCORE_WEIGHTS if matrix is None else weights_stage(matrix)[1]
    return score_panel(table, weights)


def equity_stage(panel):
    """Per-country score series and the global equity index. Returns reports."""
    countries, years = panel.table.countries, panel.table.years
    ge = equity.global_equity_index(panel.scores.T, countries=countries, years=years)
    return {"equity.json": {
        "countries": countries,
        "years": years,
        "scores": [
            {"country": c,
             "series": [{"year": y, "score": score} for y, score in zip(years, series)]}
            for c, series in zip(countries, panel.scores.tolist())
        ],
        "global_equity_index": ge,
    }}


def topsis_stage(decision, weights=None):
    """Rank alternatives by closeness to the ideal solution.

    Returns (reports, rows): one full-precision row per alternative, in input
    order, with the fields of TOPSIS_COLUMNS.
    """
    ranked = topsis.rank_alternatives(decision, weights=weights)
    order = {i: pos + 1 for pos, i in enumerate(ranked.ranking)}
    rows = [
        (label, float(ranked.d_plus[i]), float(ranked.d_minus[i]), float(ranked.s[i]),
         float(ranked.s_normalized[i]), order[i])
        for i, label in enumerate(decision.alternative_labels)
    ]
    return {"topsis.json": {
        "indicators": decision.indicator_labels,
        "alternatives": [dict(zip(TOPSIS_COLUMNS, r)) for r in rows],
        "ranking": [decision.alternative_labels[i] for i in ranked.ranking],
    }}, rows


def mining_stage(scenario, income_mode=None):
    """Income and profit in both income modes for a parsed scenario. The selected mode
    is `income_mode` when given, else the scenario's own. Returns (reports, its profit)."""
    params, window, scenario_mode, name = scenario
    selected = income_mode or scenario_mode
    incomes = {m: mining.income(window, params, m) for m in mining.INCOME_MODES}
    profits = {m: mining.profit(incomes[m], window.cost) for m in mining.INCOME_MODES}
    return {"mining.json": {
        "scenario": name,
        **asdict(params),
        "window": asdict(window),
        "income": incomes,
        "profit": profits,
        "selected_mode": selected,
    }}, profits[selected]


def allocation_stage(basis_scores, gammas, total_profit, alloc_mode, basis=RunConfig.alloc_basis):
    """Split total_profit by basis score, boosted by the poverty multipliers `gammas`.
    Returns reports. A loss allocates nothing: total_profit 0 and every share 0."""
    if set(gammas) != set(basis_scores):
        raise ValidationError("GDP table countries do not match the indicator table")
    result = allocation.allocate(max(total_profit, 0.0), basis_scores, gammas, mode=alloc_mode)
    return {"allocation.json": {
        "basis": basis,
        "mode": alloc_mode,
        "total_profit": result.total_profit,
        "over_allocation": result.over_allocation,
        "shares": [
            {"country": s.label, "gamma": s.gamma, "raw_share": s.raw_share,
             "conserved_share": s.conserved_share}
            for s in result.shares
        ],
    }}


def correlation_stage(panel, alpha=stats.DEFAULT_ALPHA):
    """Pearson r and t test of each indicator against the scores. Returns reports."""
    x, series = panel.records
    per_indicator = []
    for j, name in enumerate(io.INDICATOR_COLUMNS):
        result = stats.t_test(stats.pearson(np.array(x[:, j]), series), len(series), alpha=alpha)
        fields = {k: v for k, v in asdict(result).items() if k != "n"}  # n: once, at the top
        direction = "positive" if result.r > 0 else ("negative" if result.r < 0 else "zero")
        per_indicator.append({"indicator": name, **fields, "direction": direction})
    return {"correlation.json": {"alpha": alpha, "n": len(series), "indicators": per_indicator}}


def sensitivity_stage(panel, train, seed=None):
    """Train the sensitivity network on (indicators -> scaled scores) and sweep its
    weights. `train` is a TrainConfig; `seed` overrides its seed. Returns reports."""
    x, series = panel.records
    if seed is not None:
        train = replace(train, seed=seed)
    sweep = sensnet.sensitivity_sweep(x, scale_targets(series), train, io.INDICATOR_COLUMNS)
    named = [(n, float(v)) for n, v in zip(io.INDICATOR_COLUMNS, sweep.sensitivities)]
    return {
        "sensitivity.csv": (("indicator", "value"), named),
        "perturbation.csv": (("weight_id", "w", "output"), sweep.perturbation_rows),
        "sensitivity.json": {
            "seed": train.seed,
            "epochs": train.epochs,
            "learning_rate": train.learning_rate,
            "layer_sizes": list(train.layer_sizes),
            "final_loss": sweep.final_loss,
            "sensitivities": [{"indicator": n, "value": v} for n, v in named],
            "max_output_variation": sweep.max_variation,
            "variation_band": VARIATION_BAND,
            "within_band": bool(sweep.max_variation <= VARIATION_BAND),
        },
    }


def run_pipeline(config: RunConfig, out_dir) -> dict:
    """Run every stage, then write the REPORT_FILES into out_dir at once. Stage `config`
    reads every input file, applies the poverty policy and checks the panel holds the
    sensnet.MIN_SAMPLES records sensitivity needs, before any stage computes.
    Returns {artifact name: Path}. Raises PipelineError carrying the failing
    stage's name; a failed run, a CR failure included, leaves out_dir as it was."""
    return _run_stages(lambda: config, out_dir)


def _run_stages(read_config, out_dir) -> dict:
    # run_pipeline's stages; `equimine report` reads its run config in stage `config`
    with _stage("config"):
        config = read_config()
        inputs, sha256 = load_inputs(config.paths)
        gammas = allocation.poverty_multipliers(inputs["gdp"], config.poverty)
        if (records := inputs["indicators"].values[..., 0].size) < sensnet.MIN_SAMPLES:
            raise ValidationError(f"the indicator table has {records} records; the sensitivity "
                                  f"network needs at least {sensnet.MIN_SAMPLES}")
    report_set = {}

    with _stage("consistency"):
        reports, report = consistency_stage(inputs["pairwise"])
        report_set |= reports
        if not report.passes:
            raise PipelineError(
                "consistency",
                f"comparison matrix failed the consistency check (CR = {report.cr:.4f} >= 0.1)",
                {"cr": report.cr},
            )

    with _stage("weights"):
        reports, mean_weights = weights_stage(inputs["pairwise"])
        report_set |= reports

    with _stage("equity"):
        panel = score_panel(inputs["indicators"], mean_weights)
        report_set |= equity_stage(panel)

    with _stage("topsis"):
        if inputs["decision"] is not None:
            reports, rows = topsis_stage(inputs["decision"])
        else:
            # Rank countries on their latest-year indicators, AHP-weighted.
            decision = topsis.DecisionMatrix(
                values=panel.table.values[:, -1],
                alternative_labels=panel.table.countries,
                indicator_kinds=[topsis.IndicatorKind("benefit")] * len(io.INDICATOR_COLUMNS),
                indicator_labels=list(io.INDICATOR_COLUMNS),
            )
            reports, rows = topsis_stage(decision, mean_weights)
        report_set |= reports

    with _stage("mining"):
        reports, total_profit = mining_stage(inputs["scenario"], config.income_mode)
        report_set |= reports

    with _stage("allocation"):
        if config.alloc_basis == "equity":
            basis_scores = panel.latest_scores()
        else:
            basis_scores = {row[0]: row[4] for row in rows}
            if set(basis_scores) != set(panel.table.countries):
                raise ValidationError(
                    "allocation basis 'topsis' needs the ranking to cover the same countries"
                )
        report_set |= allocation_stage(basis_scores, gammas, total_profit, config.alloc_mode,
                                       config.alloc_basis)

    with _stage("correlation"):
        report_set |= correlation_stage(panel)

    with _stage("sensitivity"):
        report_set |= sensitivity_stage(panel, inputs["train"], config.seed)

    return write_reports(out_dir, config.digest(sha256), report_set)


def scale_targets(y: np.ndarray) -> np.ndarray:
    # Sigmoid output lives in (0, 1); map scores into [0.2, 0.8] to avoid
    # saturated targets. Constant scores map to 0.5.
    lo, hi = y.min(), y.max()
    if hi == lo:
        return np.full_like(y, 0.5)
    return 0.2 + 0.6 * (y - lo) / (hi - lo)
