"""Seeded input generators for the panel-5k and scenario-sweep workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical files and arrays. Generation always runs outside the timed
region, and the program under test only ever sees the generated files or
arrays.
"""

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from checks import INDICATORS

PANEL_COUNTRIES = 1000
PANEL_YEARS = tuple(range(2016, 2021))
# The pairwise matrix, scenario and training config are the bundled sample's.
SAMPLE_FILES = ("pairwise.csv", "scenario.json", "train.json")


def write_panel(seed: int, sample_dir: Path, out_dir: Path) -> Path:
    """Write a 1000-country x 5-year panel, its GDP table and a run config.

    Returns the run config path. Indicators are a per-country level plus a
    small yearly drift, clipped into (0, 1); values are written at 4 decimals
    like the bundled sample.
    """
    rng = np.random.default_rng([seed, 5000])
    out_dir.mkdir(parents=True, exist_ok=True)
    n, years = PANEL_COUNTRIES, PANEL_YEARS
    level = rng.uniform(0.1, 0.9, size=(n, 1, len(INDICATORS)))
    drift = rng.normal(0.0, 0.02, size=(n, len(years), len(INDICATORS))).cumsum(axis=1)
    values = np.clip(level + drift, 0.01, 0.99)
    names = [f"C{i:04d}" for i in range(1, n + 1)]
    lines = ["country,year," + ",".join(INDICATORS)]
    for i, name in enumerate(names):
        for t, year in enumerate(years):
            lines.append(f"{name},{year}," + ",".join(f"{v:.4f}" for v in values[i, t]))
    (out_dir / "indicators.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    gdp = rng.lognormal(mean=8.0, sigma=1.2, size=n)
    (out_dir / "gdp.csv").write_text(
        "country,gdp\n" + "".join(f"{c},{g:.1f}\n" for c, g in zip(names, gdp)),
        encoding="utf-8")
    for name in SAMPLE_FILES:
        shutil.copyfile(sample_dir / name, out_dir / name)
    config = json.loads((sample_dir / "config.json").read_text(encoding="utf-8"))
    config["poverty"] = {"bottom_count": 100, "multiplier": 1.2}
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


@dataclass
class Case:
    """One scenario-sweep study case; arrays only, no files."""

    pairwise: np.ndarray  # (7, 7) near-consistent reciprocal matrix
    panel: np.ndarray  # (years, countries, 7) indicator levels in (0, 1)
    gdp: np.ndarray  # (countries,)
    bottom_count: int
    multiplier: float
    decision: np.ndarray  # (alternatives, 7)
    kinds: tuple  # per decision column: "benefit", "cost" or a mid x_best
    curve: tuple  # (dof, location, scale, total_value)
    window: tuple  # (t1, t2, cost); t2 may be inf


DECISION_KINDS = ("benefit", "benefit", "cost", "cost", "mid", "benefit", "mid")


def scenario_case(seed: int, index: int) -> Case:
    """The index-th study case of a scenario-sweep run with this seed."""
    rng = np.random.default_rng([seed, index])
    true_w = rng.uniform(1.0, 9.0, size=7)
    a = np.ones((7, 7))
    iu, ju = np.triu_indices(7, k=1)
    a[iu, ju] = true_w[iu] / true_w[ju] * np.exp(rng.normal(0.0, 0.1, size=iu.size))
    a[ju, iu] = 1.0 / a[iu, ju]

    countries = int(rng.integers(50, 301))
    years = int(rng.integers(3, 13))
    level = rng.uniform(0.1, 0.9, size=(1, countries, 7))
    panel = np.clip(level + rng.normal(0.0, 0.03, size=(years, countries, 7)), 0.01, 0.99)
    gdp = rng.lognormal(mean=8.0, sigma=1.2, size=countries)

    alternatives = int(rng.integers(100, 601))
    decision = rng.uniform(1.0, 100.0, size=(alternatives, 7))
    kinds = tuple(float(rng.uniform(20.0, 80.0)) if k == "mid" else k for k in DECISION_KINDS)

    dof = float(rng.uniform(2.0, 30.0))
    location = float(rng.uniform(5.0, 30.0))
    scale = float(rng.uniform(2.0, 10.0))
    total_value = float(10.0 ** rng.uniform(12.0, 14.0))
    t1 = float(rng.uniform(0.0, location))
    t2 = float("inf") if rng.random() < 0.3 else float(location + rng.uniform(1.0, 40.0))
    # Cost stays below half the window's income, so profit is positive.
    mass = (stdtr(dof, (t2 - location) / scale) - stdtr(dof, (t1 - location) / scale)) \
        / (1.0 - stdtr(dof, -location / scale))
    cost = float(rng.uniform(0.0, 0.5) * total_value * mass)
    return Case(
        pairwise=a, panel=panel, gdp=gdp,
        bottom_count=int(rng.integers(1, countries // 5 + 1)),
        multiplier=float(rng.uniform(1.1, 1.5)),
        decision=decision, kinds=kinds,
        curve=(dof, location, scale, total_value), window=(t1, t2, cost),
    )
