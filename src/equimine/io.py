"""CSV and JSON input/output. All readers expect comma-delimited UTF-8 with a
header row; all writers produce byte-stable output (fixed field order, '\n'
line endings, full precision in CSV). JSON reports round every float to 6
significant digits; only listed keys may hold an infinity, written as null."""

import csv
import difflib
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .equity import INDICATOR_COLUMNS
from .errors import ParseError, ValidationError, as_integer, as_real, as_text, check_labels
from .mcda import PairwiseMatrix
from .mining import MiningCurveParams, RevenueWindow
from .sensnet import TrainConfig
from .topsis import DecisionMatrix, IndicatorKind


def parse_ratio(text: str) -> float:
    """Parse a comparison ratio; fractions like '1/3' are taken exactly."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad ratio {text!r}: {exc}") from None


def load_pairwise_csv(path, hasher=None) -> PairwiseMatrix:
    """Read a comparison matrix: header and first column carry the labels."""
    rows = list(_rows(path, hasher))  # a few short rows; the row count is checked first
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


def load_decision_csv(path, hasher=None) -> DecisionMatrix:
    """Read a decision matrix; header cells are 'name:kind' with kind one of
    benefit, cost or mid=<x_best>; first column holds alternative labels."""
    rows = _rows(path, hasher)
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


def load_indicator_table(path, hasher=None) -> IndicatorTable:
    """Read a complete panel of per-(country, year) indicator records, rejecting
    duplicates, non-finite cells and missing (country, year) records."""
    rows = _rows(path, hasher)
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


def load_gdp_csv(path, hasher=None) -> dict:
    """Read (country, gdp) pairs into a dict, preserving file order."""
    rows = _rows(path, hasher)
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


def read_json_object(path, what: str, hasher=None):
    """Parse a JSON file (`hasher` as for _lines) for read_fields. Invalid JSON, an unreadable
    file or an object repeating a key (json.loads would keep its last value) is an error."""
    try:
        return json.loads("".join(_lines(path, hasher)), object_pairs_hook=lambda pairs: (
            check_labels([k for k, _ in pairs], len(pairs), f"{what} field") or dict(pairs)))
    except json.JSONDecodeError as exc:  # not _lines' ParseError, a ValueError too
        raise ParseError(f"{what} is not valid JSON: {exc}") from None


def read_fields(raw, what: str, schema: dict) -> dict:
    """The JSON object `raw` read by its field table `schema`, {key: (default, convert)}:
    convert(raw[key]), or convert(default) for a key raw lacks. Anything but an object, an
    unknown key (named with its closest known key) or a value convert rejects is a ParseError."""
    if not isinstance(raw, dict):
        raise ParseError(f"{what} must be a JSON object, not {type(raw).__name__}")
    if unknown := [key for key in raw if key not in schema]:
        close = difflib.get_close_matches(unknown[0], schema, n=1)
        raise ParseError(f"{what} has an unknown field {unknown[0]!r}"
                         + (f"; did you mean {close[0]!r}?" if close else ""))
    fields = {}
    for key, (default, convert) in schema.items():
        try:
            fields[key] = convert(value := raw.get(key, default))
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{what} field {key!r} has a bad value {value!r}" if key in raw
                             else f"{what} is missing {key!r}") from None
    return fields


SCENARIO_FIELDS = {  # defaults read off the classes; t2 also takes "inf"
    **{key: (getattr(MiningCurveParams, key), as_real)
       for key in ("dof", "location", "scale", "total_value")},
    "t1": (0.0, as_real),
    "t2": ("inf", lambda value: math.inf if value == "inf" else as_real(value)),
    "cost": (RevenueWindow.cost, as_real),
    "name": (None, lambda value: None if value is None else as_text(value)),
}
TRAIN_FIELDS = {key: (getattr(TrainConfig, key), convert) for key, convert in [
    ("layer_sizes", lambda value: tuple(map(as_integer, value))), ("learning_rate", as_real),
    ("epochs", as_integer), ("seed", as_integer)]}


def load_scenario(path, hasher=None):
    """A scenario JSON file's (MiningCurveParams, RevenueWindow, name), by SCENARIO_FIELDS."""
    f = read_fields(read_json_object(path, "scenario", hasher), "scenario", SCENARIO_FIELDS)
    params = MiningCurveParams(f["dof"], f["location"], f["scale"], f["total_value"])
    return params, RevenueWindow(f["t1"], f["t2"], f["cost"]), f["name"]


def load_train_config(path, hasher=None) -> TrainConfig:
    """Read training settings by TRAIN_FIELDS."""
    return TrainConfig(**read_fields(read_json_object(path, "train config", hasher),
                                     "train config", TRAIN_FIELDS))


def _lines(path, hasher=None):
    """Yield a UTF-8 file's lines, each fed to `hasher` (a hashlib object) if given: strict
    and untranslated, they hash as the file's bytes. Unreadable or bad UTF-8: ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for line in handle:
                if hasher is not None:
                    hasher.update(line.encode("utf-8"))
                yield line
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror or exc
        raise ParseError(f"cannot read {path}: {reason}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not valid UTF-8: {exc.reason}") from None
    except ValueError as exc:  # from open: a path holding a NUL byte, say
        raise ParseError(f"cannot read {path}: {exc}") from None


def _rows(path, hasher=None):
    """Yield (line, row) for each non-blank row of a CSV file read by _lines, `line` being
    the file line it ends on. CSV errors and rows ragged against the header are ParseErrors."""
    reader = csv.reader(_lines(path, hasher))
    width = None
    try:
        for row in reader:
            if any(c.strip() for c in row):
                width = width or len(row)
                if len(row) != width:
                    raise ParseError(f"expected {width} cells, got {len(row)}",
                                     line=reader.line_num)
                yield reader.line_num, row
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
    canonical = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
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
