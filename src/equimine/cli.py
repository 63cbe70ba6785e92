"""Command line front end: parse flags, call the pipeline's stages, write reports.

Each subcommand writes exactly the reports `report` writes for its stage
(`topsis` also writes topsis.csv). Failures print the error JSON and exit 1.
"""

import json
import logging
import os
import sys
from contextlib import contextmanager

import click

from . import io, pipeline
from .allocation import ALLOC_MODES, PovertyPolicy, poverty_multipliers
from .errors import PipelineError
from .mining import INCOME_MODES
from .stats import DEFAULT_ALPHA


@click.group()
def main():
    """Decision-analysis toolkit: weighting, ranking, equity, mining revenue, allocation,
    correlation and sensitivity over CSV inputs. EQUIMINE_LOG sets the log level."""
    level = os.environ.get("EQUIMINE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@contextmanager
def _errors_as_json():
    """Print any stage's error raised inside as the error JSON and exit 1."""
    try:
        yield
    except PipelineError as exc:
        click.echo(json.dumps({"error": {"stage": exc.stage, "message": exc.message,
                                         **exc.detail}}, indent=2))
        sys.exit(1)


def _input(*decls, help, required=True):  # a subcommand loads the dests in pipeline.INPUT_FILES
    return click.option(*decls, required=required, type=click.Path(), help=help)


OUT = click.option("--out", required=True, type=click.Path(), help="Output directory.")
MATRIX = _input("--pairwise", help="Pairwise comparison matrix CSV.")
PAIRWISE = _input("--pairwise", required=False,
                  help="Optional comparison matrix; its mean AHP weights replace the defaults.")
INDICATORS = _input("--indicators", help="Indicator CSV (country, year, ei..sa).")
DECISION = _input("--decision", help="Decision matrix CSV with kind-annotated headers.")
SCENARIO = _input("--scenario", help="Mining scenario JSON.")
GDP = _input("--gdp", help="GDP CSV (country, gdp).")
TRAIN = _input("--train", help="Training config JSON (learning_rate, epochs, seed, layer_sizes).")
INCOME_MODE = click.option("--income-mode", type=click.Choice(INCOME_MODES), default=None,
                           help="Override the run config's and the scenario's income mode.")
BOTTOM_COUNT = click.option("--bottom-count", type=int, default=PovertyPolicy.bottom_count,
                            show_default=True, help="Size of the poverty group by ascending GDP.")
ALLOC_MODE = click.option("--alloc-mode", type=click.Choice(ALLOC_MODES),
                          default=pipeline.RunConfig.alloc_mode)
MULTIPLIER = click.option("--multiplier", type=float, default=PovertyPolicy.multiplier,
                          show_default=True)
ALPHA = click.option("--alpha", type=float, default=DEFAULT_ALPHA, show_default=True)
SEED = click.option("--seed", type=int, default=None, help="Override the training seed.")


def _stage_command(stage, *options):
    """Register body as a subcommand taking `options` and --out. In stage `stage`,
    load_inputs reads its input files for the body; the digest hashes them and the flags."""
    def register(body):
        def command(out, **flags):
            paths = {name: flags.pop(name) for name in pipeline.INPUT_FILES if name in flags}
            with _errors_as_json():
                with pipeline._stage(stage):
                    inputs, sha256 = pipeline.load_inputs(paths)
                    reports = body(**inputs, **flags)
                written = pipeline.write_reports(out, io.config_digest(flags | sha256), reports)
            click.echo("wrote " + ", ".join(str(p) for p in written.values()))
        for option in reversed((*options, OUT)):
            command = option(command)
        return main.command(name=body.__name__, help=body.__doc__)(command)
    return register


@_stage_command("weights", MATRIX)
def weights(pairwise):
    """Derive criterion weights by all three methods."""
    return pipeline.weights_stage(pairwise)[0]


@_stage_command("consistency", MATRIX)
def consistency(pairwise):
    """Check a comparison matrix for consistency (CR < 0.1)."""
    return pipeline.consistency_stage(pairwise)[0]


@_stage_command("topsis", DECISION, PAIRWISE)
def topsis(decision, pairwise):
    """Rank alternatives by closeness to the ideal solution."""
    weights = None if pairwise is None else pipeline.weights_stage(pairwise)[1]  # None: equal
    reports, rows = pipeline.topsis_stage(decision, weights)
    return {**reports, "topsis.csv": (pipeline.TOPSIS_COLUMNS, rows)}


@_stage_command("equity", INDICATORS, PAIRWISE)
def equity(indicators, pairwise):
    """Per-country development scores and the global equity index."""
    return pipeline.equity_stage(pipeline.weighted_panel(indicators, pairwise))


@_stage_command("mining", SCENARIO, INCOME_MODE)
def simulate(scenario, income_mode):
    """Income and profit for a mining scenario, both income modes side by side."""
    return pipeline.mining_stage(scenario, income_mode)[0]


@_stage_command("allocation", INDICATORS, GDP, SCENARIO, PAIRWISE, ALLOC_MODE, INCOME_MODE,
                BOTTOM_COUNT, MULTIPLIER)
def allocate(indicators, gdp, scenario, pairwise, alloc_mode, income_mode, **poverty):
    """Split scenario profit across countries by development score."""
    basis_scores = pipeline.weighted_panel(indicators, pairwise).latest_scores()
    _, total_profit = pipeline.mining_stage(scenario, income_mode)
    gammas = poverty_multipliers(gdp, PovertyPolicy(**poverty))  # --bottom-count, --multiplier
    return pipeline.allocation_stage(basis_scores, gammas, total_profit, alloc_mode)


@_stage_command("correlation", INDICATORS, PAIRWISE, ALPHA)
def correlate(indicators, pairwise, alpha):
    """Correlate each indicator with the development score across all records."""
    return pipeline.correlation_stage(pipeline.weighted_panel(indicators, pairwise), alpha)


@_stage_command("sensitivity", INDICATORS, TRAIN, PAIRWISE, SEED)
def sensitivity(indicators, train, pairwise, seed):
    """Train the sensitivity network and sweep trained weights."""
    return pipeline.sensitivity_stage(pipeline.weighted_panel(indicators, pairwise), train, seed)


@main.command()
@_input("--config", help="Run config JSON naming every input file.")
@OUT
@INCOME_MODE
@click.option("--alloc-mode", type=click.Choice(ALLOC_MODES), default=None)
@click.option("--alloc-basis", type=click.Choice(pipeline.ALLOC_BASES), default=None)
@SEED
def report(config, out, **overrides):
    """Run the full pipeline and write every report artifact."""
    with _errors_as_json():
        written = pipeline._run_stages(lambda: pipeline.load_run_config(config, **overrides), out)
    click.echo(f"wrote {len(written)} artifacts to {out}")


if __name__ == "__main__":
    main()
