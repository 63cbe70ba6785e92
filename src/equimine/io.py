"""CSV and JSON input/output. All readers expect comma-delimited UTF-8 with a
header row; all writers produce byte-stable output (fixed field order, '\n'
line endings, full precision in CSV). JSON reports round every float to 6
significant digits and write non-finite values as null (`write_json_report`)."""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, as_integer
from .mcda import PairwiseMatrix
from .mining import (DEFAULT_DOF, DEFAULT_INCOME_MODE, DEFAULT_LOCATION, DEFAULT_SCALE,
                     DEFAULT_TOTAL_VALUE, INCOME_MODES, MiningCurveParams, RevenueWindow)
from .sensnet import DEFAULT_LAYER_SIZES, LayerSpec, TrainConfig
from .topsis import DecisionMatrix, IndicatorKind

INDICATOR_COLUMNS = ("ei", "idg", "cea", "ma", "hr", "er", "sa")


def parse_ratio(text: str) -> float:
    """Parse a comparison ratio; fractions like '1/3' are taken exactly."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad ratio {text!r}: {exc}") from None


def load_pairwise_csv(path) -> PairwiseMatrix:
    """Read a comparison matrix: header and first column carry the labels."""
    rows = _read_rows(path)
    if len(rows) < 2:
        raise ParseError("pairwise matrix file needs a header and body", line=1)
    labels = [c.strip() for c in rows[0][1:]]
    n = len(labels)
    if len(rows) - 1 != n:
        raise ParseError(f"header has {n} labels but the file has {len(rows) - 1} body rows",
                         line=1)
    entries = np.empty((n, n))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ParseError(f"expected {n + 1} cells, got {len(row)}", line=i)
        if row[0].strip() != labels[i - 2]:
            raise ParseError(
                f"row label {row[0].strip()!r} does not match header order", line=i
            )
        for j, cell in enumerate(row[1:]):
            try:
                entries[i - 2, j] = parse_ratio(cell)
            except ParseError as exc:
                raise ParseError(str(exc), line=i) from None
    return PairwiseMatrix(entries=entries, labels=labels)


def load_decision_csv(path) -> DecisionMatrix:
    """Read a decision matrix; header cells are 'name:kind' with kind one of
    benefit, cost or mid=<x_best>; first column holds alternative labels."""
    rows = _read_rows(path)
    if len(rows) < 2:
        raise ParseError("decision matrix file needs a header and body", line=1)
    names, kinds = [], []
    for cell in rows[0][1:]:
        if ":" not in cell:
            raise ParseError(f"indicator {cell!r} is missing its kind annotation", line=1)
        name, annotation = cell.rsplit(":", 1)
        names.append(name.strip())
        try:
            kinds.append(IndicatorKind.parse(annotation.strip()))
        except ValidationError as exc:
            raise ParseError(str(exc), line=1) from None
    labels, values = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(names) + 1:
            raise ParseError(f"expected {len(names) + 1} cells, got {len(row)}", line=i)
        labels.append(row[0].strip())
        try:
            values.append([float(c) for c in row[1:]])
        except ValueError as exc:
            raise ParseError(str(exc), line=i) from None
    return DecisionMatrix(
        values=np.array(values),
        alternative_labels=labels,
        indicator_kinds=kinds,
        indicator_labels=names,
    )


@dataclass
class IndicatorTable:
    """A complete indicator panel: values[c, t] holds the seven indicators of
    countries[c] in years[t], countries in file order and years sorted."""

    countries: list
    years: list
    values: np.ndarray  # (countries, years, 7)


def load_indicator_table(path) -> IndicatorTable:
    """Read a complete panel of per-(country, year) indicator records, rejecting
    duplicates, non-finite cells and missing (country, year) records."""
    rows = _read_rows(path)
    expected = ("country", "year") + INDICATOR_COLUMNS
    if not rows or tuple(c.strip().lower() for c in rows[0]) != expected:
        raise ParseError(f"header must be {','.join(expected)}", line=1)
    records = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(expected):
            raise ParseError(f"expected {len(expected)} cells, got {len(row)}", line=i)
        country = row[0].strip()
        try:
            year = int(row[1])
            cells = [float(c) for c in row[2:]]
        except ValueError as exc:
            raise ParseError(str(exc), line=i) from None
        if not all(map(math.isfinite, cells)):
            raise ParseError("all seven indicators must be finite", line=i)
        if (country, year) in records:
            raise ValidationError(f"duplicate record for ({country}, {year})")
        records[(country, year)] = cells
    if not records:
        raise ParseError("indicator table has no data rows", line=1)
    countries = list(dict.fromkeys(c for c, _ in records))
    years = sorted({y for _, y in records})
    missing = [(c, y) for c in countries for y in years if (c, y) not in records]
    if missing:
        raise ValidationError(f"indicator table is missing records: {missing[:5]}")
    values = np.array([[records[(c, y)] for y in years] for c in countries])
    return IndicatorTable(countries, years, values)


def load_gdp_csv(path) -> dict:
    """Read (country, gdp) pairs into a dict, preserving file order."""
    rows = _read_rows(path)
    if not rows or tuple(c.strip().lower() for c in rows[0]) != ("country", "gdp"):
        raise ParseError("header must be country,gdp", line=1)
    gdp = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"expected 2 cells, got {len(row)}", line=i)
        country = row[0].strip()
        if country in gdp:
            raise ValidationError(f"duplicate GDP row for {country!r}")
        try:
            gdp[country] = float(row[1])
        except ValueError as exc:
            raise ParseError(str(exc), line=i) from None
    return gdp


def read_json_object(path, what: str) -> dict:
    """Parse a JSON file that must hold one object; anything else is a ParseError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{what} file must hold a JSON object")
    return raw


def json_field(raw: dict, what: str, key: str, default, convert):
    """raw[key] (or default) passed through convert; a failure is a ParseError."""
    value = raw.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParseError(f"{what} field {key!r} has a bad value {value!r}") from None


def load_scenario(path):
    """Read a mining scenario JSON file.

    Returns (MiningCurveParams, RevenueWindow, mode, metadata). Missing fields
    fall back to the module defaults; t2 may be the string "inf".
    """
    raw = read_json_object(path, "scenario")

    def number(key, default):
        return json_field(raw, "scenario", key, default, float)

    params = MiningCurveParams(
        dof=number("dof", DEFAULT_DOF),
        location=number("location", DEFAULT_LOCATION),
        scale=number("scale", DEFAULT_SCALE),
        total_value=number("total_value", DEFAULT_TOTAL_VALUE),
    )
    t2 = raw.get("t2", "inf")
    t2 = math.inf if t2 in ("inf", None) else number("t2", None)
    window = RevenueWindow(t1=number("t1", 0.0), t2=t2, cost=number("cost", RevenueWindow.cost))
    mode = raw.get("mode", DEFAULT_INCOME_MODE)
    if mode not in INCOME_MODES:
        raise ParseError(f"scenario mode must be one of {', '.join(INCOME_MODES)}, got {mode!r}")
    metadata = {k: v for k, v in raw.items()
                if k not in ("dof", "location", "scale", "total_value", "t1", "t2", "cost", "mode")}
    return params, window, mode, metadata


def load_train_config(path):
    """Read training settings; returns (LayerSpec, TrainConfig)."""
    raw = read_json_object(path, "train config")

    def field(key, default, convert):
        return json_field(raw, "train config", key, default, convert)

    spec = LayerSpec(field("layer_sizes", DEFAULT_LAYER_SIZES,
                           lambda v: tuple(as_integer(s) for s in v)))
    config = TrainConfig(
        learning_rate=field("learning_rate", TrainConfig.learning_rate, float),
        epochs=field("epochs", TrainConfig.epochs, as_integer),
        seed=field("seed", TrainConfig.seed, as_integer),
    )
    return spec, config


def _read_rows(path) -> list:
    """Non-blank rows of a CSV file; undecodable bytes and CSV errors are ParseErrors."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            return [row for row in reader if row and any(c.strip() for c in row)]
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not valid UTF-8: {exc.reason}") from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None


def fmt6(x):
    """Round a float to 6 significant digits for JSON reports; None when not finite."""
    x = float(x)
    if not math.isfinite(x):
        return None
    return float(f"{x:.6g}")


def config_digest(mapping: dict) -> str:
    """Stable sha256 over a canonical JSON encoding of the mapping."""
    canonical = json.dumps(mapping, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _rounded(value):
    """The payload with fmt6 applied to every float at any depth."""
    if isinstance(value, float):
        return fmt6(value)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_rounded(v) for v in value]
    return value


def write_json_report(path, payload: dict):
    """Write payload as indented JSON, every float rounded by fmt6."""
    Path(path).write_text(json.dumps(_rounded(payload), indent=2, ensure_ascii=False) + "\n",
                          encoding="utf-8")


def write_csv(path, header, rows):
    """Write rows with full float precision and '\n' line endings."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
