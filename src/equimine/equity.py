"""Country development scores and the leave-one-out global equity index."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# The seven development indicators, in the column order of every input and report.
INDICATOR_COLUMNS = ("ei", "idg", "cea", "ma", "hr", "er", "sa")
# Coefficients of the shipped development-score formula, in INDICATOR_COLUMNS order.
# They are rounded method averages and sum to 1.0007 rather than exactly 1.
DEFAULT_SCORE_WEIGHTS = (0.187, 0.387, 0.097, 0.0436, 0.086, 0.0831, 0.117)


@dataclass
class IndicatorVector:
    """Normalized levels of the seven development indicators."""

    ei: float
    idg: float
    cea: float
    ma: float
    hr: float
    er: float
    sa: float

    def __post_init__(self):
        fields = (self.ei, self.idg, self.cea, self.ma, self.hr, self.er, self.sa)
        try:  # plain float tests: this runs once per record
            finite = all(map(math.isfinite, fields))
        except (TypeError, OverflowError):  # not a number, or an int past the float range
            finite = False
        if not finite:
            raise ValidationError("all seven indicators must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.ei, self.idg, self.cea, self.ma, self.hr, self.er, self.sa])


def development_scores(values, weights=DEFAULT_SCORE_WEIGHTS) -> np.ndarray:
    """Weighted sum of the seven indicators per record: float array (..., 7) -> (...)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(INDICATOR_COLUMNS),):
        raise ValidationError(f"equity scoring needs a {len(INDICATOR_COLUMNS)}-criterion matrix, "
                              f"got weights of shape {w.shape}")
    # one dot product per record, so each score has the bits of w @ record;
    # values @ w would sum the products in another order
    return np.matmul(values[..., None, :], w)[..., 0]


def country_score(v: IndicatorVector, weights=DEFAULT_SCORE_WEIGHTS) -> float:
    """Weighted sum of the seven indicators."""
    return float(development_scores(v.as_array(), weights))


def global_equity_index(scores_by_year, countries=None, years=None) -> float:
    """Variance of leave-one-out score ratios, averaged over years.

    For each year, every country's score is divided by the mean score of the
    other countries; the squared deviations of those ratios from their
    within-year mean are summed. The total is divided by (number of years *
    number of countries). Identical countries therefore give 0 up to
    rounding, and rescaling all scores within a year changes nothing.

    Parameters
    ----------
    scores_by_year : array-like, shape (T, n)
        One row per year, one column per country; all entries present.
    countries, years : optional labels used in error messages.
    """
    # C order: numpy sums the rows of a transposed view in another order
    s = np.ascontiguousarray(scores_by_year, dtype=float)
    if s.ndim != 2:
        raise ValidationError(f"expected a (years x countries) table, got shape {s.shape}")
    t, n = s.shape
    if n < 2:
        raise ValidationError("need at least 2 countries")
    if t < 1:
        raise ValidationError("need at least 1 year")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores must be finite")

    loo_mean = (s.sum(axis=1, keepdims=True) - s) / (n - 1)
    zeros = np.argwhere(loo_mean == 0)
    if zeros.size:
        ti, k = zeros[0]
        country, year = (countries[k] if countries is not None else f"#{k}",
                         years[ti] if years is not None else f"#{ti}")
        raise ValidationError(f"leave-one-out mean score is zero for country {country!r} "
                              f"in year {year}")
    ratios = s / loo_mean
    per_year = ((ratios - ratios.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    # the year terms are added in year order: a running sum, which Python's
    # sum() of floats is not from 3.12 on
    return float(np.cumsum(per_year)[-1]) / (t * n)
