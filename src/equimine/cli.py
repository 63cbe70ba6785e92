"""Command line front end: parse flags, run the pipeline, print what it wrote.

Each subcommand runs one stage of `pipeline.STAGES` and writes exactly the reports
`report` writes for it. Failures print the error JSON and exit 1.
"""

import argparse
import json
import logging
import os
import sys

from . import pipeline
from .errors import PipelineError
from .mcda import CR_LIMIT
from .mining import INCOME_MODES


def _option(flag, **kwargs):
    """One flag: its add_argument call, made on each subcommand that takes it."""
    return flag, kwargs


def _input(flag, help, required=True, default=None):  # dest: an input of pipeline.INPUT_FILES
    return _option(flag, required=required, default=default, metavar="PATH", help=help)


OUT = _option("--out", required=True, metavar="PATH", help="Output directory.")
MATRIX = _input("--pairwise", help="Pairwise comparison matrix CSV.")
PAIRWISE = _input("--pairwise", required=False,
                  help="Optional comparison matrix; its mean AHP weights replace the defaults.")
INDICATORS = _input("--indicators", help="Indicator CSV (country, year, ei..sa).")
DECISION = _input("--decision", help="Decision matrix CSV with kind-annotated headers.")
# Left out of the flags when not given, so `allocate` without it hashes the inputs it
# hashed before it had the flag.
RANKED = _input("--decision", required=False, default=argparse.SUPPRESS,
                help="Optional decision matrix ranked for --alloc-basis topsis (default: the "
                "countries ranked on their latest-year indicators).")
SCENARIO = _input("--scenario", help="Mining scenario JSON.")
GDP = _input("--gdp", help="GDP CSV (country, gdp).")
TRAIN = _input("--train", help="Training config JSON (learning_rate, epochs, seed, layer_sizes).")
CONFIG = _input("--config", help="Run config JSON naming every input file.")
# A setting flag left out is None: the run config's value, else RunConfig's default.
INCOME_MODE = _option("--income-mode", choices=INCOME_MODES, help="Integrated income or the "
                      f"literal rate difference (default: {pipeline.RunConfig.income_mode}, or "
                      "the run config's under report).")
ALLOC_BASIS = _option("--alloc-basis", choices=pipeline.ALLOC_BASES, help="The scores the "
                      "profit is split by: development or TOPSIS closeness (default: "
                      f"{pipeline.RunConfig.alloc_basis}, or the run config's under report).")
BOTTOM_COUNT = _option("--bottom-count", type=int, metavar="N", help="Size of the poverty "
                       "group by ascending GDP, at most the GDP table's country count "
                       f"(default: {pipeline.RunConfig.bottom_count}; the sample config uses 2).")
MULTIPLIER = _option("--multiplier", type=float, metavar="M", help="Share multiplier of the "
                     f"poverty group (default: {pipeline.RunConfig.multiplier}).")
SEED = _option("--seed", type=int, metavar="N",
               help="Training seed (default: the train config's).")


# Each subcommand's stage (a key of pipeline.STAGES), help text and flags besides --out.
SUBCOMMANDS = {
    "weights": ("weights", "Derive criterion weights by all three methods.", MATRIX),
    "consistency": ("consistency", f"Check a comparison matrix for consistency (CR < {CR_LIMIT}).",
                    MATRIX),
    "topsis": ("topsis", "Rank alternatives by closeness to the ideal solution.", DECISION),
    "equity": ("equity", "Per-country development scores and the global equity index.",
               INDICATORS, PAIRWISE),
    "simulate": ("mining", "Income and profit for a mining scenario, both income modes side "
                 "by side.", SCENARIO),
    "allocate": ("allocation", "Split scenario profit across countries by development score.",
                 INDICATORS, GDP, SCENARIO, PAIRWISE, RANKED, ALLOC_BASIS, INCOME_MODE,
                 BOTTOM_COUNT, MULTIPLIER),
    "correlate": ("correlation", "Correlate each indicator with the development score across "
                  "all records.", INDICATORS, PAIRWISE),
    "sensitivity": ("sensitivity", "Train the sensitivity network and sweep trained weights.",
                    INDICATORS, TRAIN, PAIRWISE, SEED),
}
# `report` runs every stage through run_pipeline; its help text and flags besides --out.
REPORT = ("Run the full pipeline and write every report artifact.", CONFIG, INCOME_MODE,
          ALLOC_BASIS, SEED)


def main(args=None, prog_name="equimine", standalone_mode=True):
    """Run `prog_name args` (args: sys.argv[1:] if None), print what it wrote and return 0.
    A PipelineError prints the error JSON and exits 1; a usage error exits 2. EQUIMINE_LOG
    sets the log level. `standalone_mode` changes nothing: perfbench's worker passes it, as
    the click CLI this replaces took it, and it goes once the worker calls main(args)."""
    parser = argparse.ArgumentParser(
        prog=prog_name, allow_abbrev=False, description="Decision-analysis toolkit: weighting, "
        "ranking, equity, mining revenue, allocation, correlation and sensitivity over CSV "
        "inputs. EQUIMINE_LOG sets the log level.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, *options) in {**SUBCOMMANDS, "report": (None, *REPORT)}.items():
        command = commands.add_parser(name, help=help, description=help, allow_abbrev=False)
        for flag, kwargs in (*options, OUT):
            command.add_argument(flag, **kwargs)
    flags = vars(parser.parse_args(args))
    name, out = flags.pop("command"), flags.pop("out")
    level = logging.getLevelName(os.environ.get("EQUIMINE_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if name == "report":
            written = pipeline.run_pipeline(flags.pop("config"), out, **flags)
            print(f"wrote {len(written)} artifacts to {out}")
        else:
            written = pipeline.run_stage(SUBCOMMANDS[name][0], flags, out)
            print("wrote " + ", ".join(str(p) for p in written.values()))
    except PipelineError as exc:
        print(json.dumps({"error": {"stage": exc.stage, "message": exc.message, **exc.detail}},
                         indent=2))
        sys.exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
