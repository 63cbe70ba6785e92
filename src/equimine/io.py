"""CSV and JSON input/output. All readers expect comma-delimited UTF-8 with a
header row; all writers produce byte-stable output (fixed field order, '\n'
line endings, full precision in CSV). JSON reports round every float to 6
significant digits; only listed keys may hold an infinity, written as null."""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, as_integer, as_real
from .mcda import PairwiseMatrix
from .mining import (DEFAULT_DOF, DEFAULT_INCOME_MODE, DEFAULT_LOCATION, DEFAULT_SCALE,
                     DEFAULT_TOTAL_VALUE, INCOME_MODES, MiningCurveParams, RevenueWindow)
from .sensnet import TrainConfig
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
    rows = list(_rows(path))  # a few short rows; the row count is checked first
    if len(rows) < 2:
        raise ParseError("pairwise matrix file needs a header and body", line=1)
    header_line, header = rows[0]
    labels = [c.strip() for c in header[1:]]
    n = len(labels)
    if len(rows) - 1 != n:
        raise ParseError(f"header has {n} labels but the file has {len(rows) - 1} body rows",
                         line=header_line)
    entries = np.empty((n, n))
    for i, (line, row) in enumerate(rows[1:]):
        if row[0].strip() != labels[i]:
            raise ParseError(f"row label {row[0].strip()!r} does not match header order", line=line)
        entries[i] = _converted(line, parse_ratio, row[1:])
    return PairwiseMatrix(entries=entries, labels=labels)


def load_decision_csv(path) -> DecisionMatrix:
    """Read a decision matrix; header cells are 'name:kind' with kind one of
    benefit, cost or mid=<x_best>; first column holds alternative labels."""
    rows = _rows(path)
    header_line, header = next(rows, (1, []))
    names, kinds = [], []
    for cell in header[1:]:
        if ":" not in cell:
            raise ParseError(f"indicator {cell!r} is missing its kind annotation", line=header_line)
        name, annotation = cell.rsplit(":", 1)
        names.append(name.strip())
        kinds += _converted(header_line, IndicatorKind.parse, [annotation.strip()])
    labels, values = [], []
    for line, row in rows:
        labels.append(row[0].strip())
        values.append(_converted(line, float, row[1:]))
    if not labels:
        raise ParseError("decision matrix file needs a header and body", line=header_line)
    return DecisionMatrix(values=np.array(values), alternative_labels=labels,
                          indicator_kinds=kinds, indicator_labels=names)


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
    rows = _rows(path)
    expected = ("country", "year") + INDICATOR_COLUMNS
    header_line, header = next(rows, (1, []))
    if tuple(c.strip().lower() for c in header) != expected:
        raise ParseError(f"header must be {','.join(expected)}", line=header_line)
    cells, index = [], {}  # the file's cells in one flat list; (country, year) -> record
    for line, row in rows:
        key = row[0].strip(), *_converted(line, int, row[1:2])
        record = _converted(line, float, row[2:])
        if not all(map(math.isfinite, record)):
            raise ParseError("all seven indicators must be finite", line=line)
        if key in index:
            raise ValidationError(f"duplicate record for ({key[0]}, {key[1]})")
        index[key] = len(index)
        cells += record
    if not index:
        raise ParseError("indicator table has no data rows", line=header_line)
    countries = list(dict.fromkeys(c for c, _ in index))
    years = sorted({y for _, y in index})
    missing = [(c, y) for c in countries for y in years if (c, y) not in index]
    if missing:
        raise ValidationError(f"indicator table is missing records: {missing[:5]}")
    order = [index[(c, y)] for c in countries for y in years]
    values = np.array(cells).reshape(-1, len(INDICATOR_COLUMNS))[order]
    return IndicatorTable(countries, years, values.reshape(len(countries), len(years), -1))


def load_gdp_csv(path) -> dict:
    """Read (country, gdp) pairs into a dict, preserving file order."""
    rows = _rows(path)
    header_line, header = next(rows, (1, []))
    if tuple(c.strip().lower() for c in header) != ("country", "gdp"):
        raise ParseError("header must be country,gdp", line=header_line)
    gdp = {}
    for line, row in rows:
        country = row[0].strip()
        if country in gdp:
            raise ValidationError(f"duplicate GDP row for {country!r}")
        [gdp[country]] = _converted(line, float, row[1:])
    return gdp


def read_json_object(path, what: str) -> dict:
    """Parse a JSON file that must hold one object; anything else, a file that cannot
    be read included, is a ParseError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{what} file must hold a JSON object")
    return raw


def json_field(raw: dict, what: str, key: str, default, convert):
    """raw[key] (or default) passed through convert; any failure is a ParseError."""
    value = raw.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what} field {key!r} has a bad value {value!r}") from None


def load_scenario(path):
    """Read a mining scenario JSON file.

    Returns (MiningCurveParams, RevenueWindow, mode, name). Missing fields
    fall back to the module defaults; t2 may be the string "inf".
    """
    raw = read_json_object(path, "scenario")

    def number(key, default):
        return json_field(raw, "scenario", key, default, as_real)

    params = MiningCurveParams(
        dof=number("dof", DEFAULT_DOF),
        location=number("location", DEFAULT_LOCATION),
        scale=number("scale", DEFAULT_SCALE),
        total_value=number("total_value", DEFAULT_TOTAL_VALUE),
    )
    t2 = raw.get("t2", "inf")
    t2 = math.inf if t2 == "inf" else number("t2", None)
    window = RevenueWindow(t1=number("t1", 0.0), t2=t2, cost=number("cost", RevenueWindow.cost))
    mode = raw.get("mode", DEFAULT_INCOME_MODE)
    if mode not in INCOME_MODES:
        raise ParseError(f"scenario mode must be one of {', '.join(INCOME_MODES)}, got {mode!r}")
    return params, window, mode, raw.get("name")


def load_train_config(path) -> TrainConfig:
    """Read training settings; a missing field takes TrainConfig's default."""
    raw = read_json_object(path, "train config")

    def field(key, convert):
        return json_field(raw, "train config", key, getattr(TrainConfig, key), convert)

    return TrainConfig(
        layer_sizes=field("layer_sizes", lambda v: tuple(as_integer(s) for s in v)),
        learning_rate=field("learning_rate", as_real),
        epochs=field("epochs", as_integer),
        seed=field("seed", as_integer),
    )


def _rows(path):
    """Yield (line, row) for each non-blank row of a CSV file, `line` being the file line
    it ends on. A file that cannot be read, bad UTF-8, CSV errors and rows ragged against
    the header are ParseErrors."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            width = None
            for row in reader:
                if any(c.strip() for c in row):
                    width = width or len(row)
                    if len(row) != width:
                        raise ParseError(f"expected {width} cells, got {len(row)}",
                                         line=reader.line_num)
                    yield reader.line_num, row
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def _converted(line, convert, cells) -> list:
    """[convert(c) for c in cells]; a ValueError is a ParseError naming `line`. So is
    a cell holding what float, int and Fraction accept beyond ASCII digits: the
    digit-group separator '_', and non-ASCII digits such as '١٠٠'."""
    if bad := [c for c in cells if "_" in c or not c.isascii()]:
        raise ParseError(f"bad number {bad[0]!r}: '_' and non-ASCII are not allowed", line=line)
    try:
        return [convert(c) for c in cells]
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from None


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


def _rounded(value, infinite, key=None):
    """The payload with fmt6 applied to every float at any depth. Only a float under
    one of the keys `infinite` may be +/-inf; a NaN, or an infinity under any other
    key, raises ValidationError naming the key it is under."""
    if isinstance(value, float):
        if math.isnan(value) or (math.isinf(value) and key not in infinite):
            raise ValidationError(f"{key!r} is {value}, not a finite number")
        return fmt6(value)
    if isinstance(value, dict):
        return {k: _rounded(v, infinite, k) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_rounded(v, infinite, key) for v in value]
    return value


def write_json_report(path, payload: dict, infinite):
    """Encode payload as indented JSON straight into the file, every float rounded
    by fmt6; only keys in `infinite` may hold an infinity, as `_rounded` checks."""
    rounded = _rounded(payload, infinite)  # before the file is opened, if it raises
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rounded, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


def write_csv(path, header, rows):
    """Write rows with full float precision and '\n' line endings."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
