"""Command line front end: parse flags, run the pipeline, print what it wrote.

Each subcommand runs one stage of `pipeline.STAGES` and writes exactly the reports
`report` writes for it. Failures print the error JSON and exit 1.
"""

import json
import logging
import os
import sys
from contextlib import contextmanager

import click

from . import pipeline
from .allocation import ALLOC_MODES
from .errors import PipelineError
from .mining import INCOME_MODES
from .stats import DEFAULT_ALPHA


@click.group()
def main():
    """Decision-analysis toolkit: weighting, ranking, equity, mining revenue, allocation,
    correlation and sensitivity over CSV inputs. EQUIMINE_LOG sets the log level."""
    level = logging.getLevelName(os.environ.get("EQUIMINE_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
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


def _input(*decls, help, required=True):  # its dest names an input of pipeline.INPUT_FILES
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
BOTTOM_COUNT = click.option("--bottom-count", type=int, default=pipeline.RunConfig.bottom_count,
                            show_default=True, help="Size of the poverty group by ascending GDP, "
                            "at most the GDP table's country count (the sample config uses 2).")
ALLOC_MODE = click.option("--alloc-mode", type=click.Choice(ALLOC_MODES),
                          default=pipeline.RunConfig.alloc_mode,
                          help="The share column named the allocation: conserve (sums to the "
                          "profit) or paper-literal. Both are reported; no number changes.")
MULTIPLIER = click.option("--multiplier", type=float, default=pipeline.RunConfig.multiplier,
                          show_default=True, help="Share multiplier of the poverty group.")
ALPHA = click.option("--alpha", type=float, default=DEFAULT_ALPHA, show_default=True,
                     help="Significance level of the two-sided t test.")
SEED = click.option("--seed", type=int, default=None, help="Override the training seed.")


# Each subcommand's stage (a key of pipeline.STAGES), help text and flags besides --out.
SUBCOMMANDS = {
    "weights": ("weights", "Derive criterion weights by all three methods.", MATRIX),
    "consistency": ("consistency", "Check a comparison matrix for consistency (CR < 0.1).",
                    MATRIX),
    "topsis": ("topsis", "Rank alternatives by closeness to the ideal solution.", DECISION),
    "equity": ("equity", "Per-country development scores and the global equity index.",
               INDICATORS, PAIRWISE),
    "simulate": ("mining", "Income and profit for a mining scenario, both income modes side "
                 "by side.", SCENARIO, INCOME_MODE),
    "allocate": ("allocation", "Split scenario profit across countries by development score.",
                 INDICATORS, GDP, SCENARIO, PAIRWISE, ALLOC_MODE, INCOME_MODE, BOTTOM_COUNT,
                 MULTIPLIER),
    "correlate": ("correlation", "Correlate each indicator with the development score across "
                  "all records.", INDICATORS, PAIRWISE, ALPHA),
    "sensitivity": ("sensitivity", "Train the sensitivity network and sweep trained weights.",
                    INDICATORS, TRAIN, PAIRWISE, SEED),
}


def _subcommand(name):
    """Register subcommand `name` of SUBCOMMANDS: it runs its stage on its flags."""
    stage, help, *options = SUBCOMMANDS[name]

    def command(out, **flags):
        with _errors_as_json():
            written = pipeline.run_stage(stage, flags, out)
        click.echo("wrote " + ", ".join(str(p) for p in written.values()))
    for option in reversed((*options, OUT)):
        command = option(command)
    main.command(name=name, help=help)(command)


for name in SUBCOMMANDS:
    _subcommand(name)


@main.command()
@_input("--config", help="Run config JSON naming every input file.")
@OUT
@INCOME_MODE
@click.option("--alloc-mode", type=click.Choice(ALLOC_MODES), default=None,
              help="Override the run config's allocation mode (no number changes).")
@click.option("--alloc-basis", type=click.Choice(pipeline.ALLOC_BASES), default=None,
              help="Override the run config's allocation basis: equity or TOPSIS scores.")
@SEED
def report(config, out, **overrides):
    """Run the full pipeline and write every report artifact."""
    with _errors_as_json():
        written = pipeline.run_pipeline(config, out, **overrides)
    click.echo(f"wrote {len(written)} artifacts to {out}")


if __name__ == "__main__":
    main()
