import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from equimine.cli import main

# Settings of the hypothesis oracles that check results against scipy.
ORACLE = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# Published per-method AHP weights for the seven development indicators. Their
# comparison matrix is unpublished, so no code path recomputes them; they do
# not sum to 1 exactly because they are printed at 4 decimals.
REFERENCE_WEIGHTS = {
    "arithmetic-mean": (0.1831, 0.3831, 0.0989, 0.0435, 0.0926, 0.0833, 0.1157),
    "geometric-mean": (0.1965, 0.3965, 0.0996, 0.0436, 0.0620, 0.0852, 0.1166),
    "eigenvalue": (0.1810, 0.3810, 0.0921, 0.0438, 0.1027, 0.0808, 0.1187),
}

# Every report a full run writes, in stage order.
REPORT_FILES = ("consistency.json", "weights.json", "equity.json", "topsis.json", "topsis.csv",
                "mining.json", "allocation.json", "correlation.json", "sensitivity.csv",
                "perturbation.csv", "sensitivity.json")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_consistent_matrix(rng, n):
    """Random fully consistent comparison matrix built as v_i / v_j."""
    v = rng.uniform(0.1, 10.0, n)
    return v[:, None] / v[None, :], v / v.sum()


@pytest.fixture
def consistent_3x3():
    return np.array([[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]], dtype=float)


def log_uniform(lo, hi):
    """dof (or df) from 10**lo to 10**hi, log-uniformly."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def run_cli(args) -> tuple:
    """Run `equimine args` in this process: (exit code, what it printed to stdout and stderr).
    An exception the CLI raised, other than SystemExit, propagates, so a traceback fails the
    test."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, output.getvalue()


def cli_flags(command) -> dict:
    """{flag: the rest of its entry} for each flag `equimine COMMAND --help` lists, --help
    aside; the rest holds the metavar (or the choices) and the description."""
    code, output = run_cli([command, "--help"])
    assert code == 0, output
    options = re.split(r"^options:\n", output, flags=re.IGNORECASE | re.MULTILINE)[1]
    entries = (" ".join(entry.split()) for entry in re.split(r"\n(?=  -)", options))
    flags = dict(re.match(r"(?:-\w, )?(--[\w-]+) ?(.*)", entry).groups()
                 for entry in entries if entry)
    del flags["--help"]
    return flags
