"""Pearson correlation with t-significance testing and strength labels."""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ValidationError

# |r| bins for the strength label; conventional, carried as shipped defaults.
STRENGTH_THRESHOLDS = ((0.8, "strong"), (0.5, "moderate"), (0.3, "weak"))

_CDF_QUAD_TOL = 1e-10


@dataclass
class CorrelationResult:
    r: float
    n: int
    t_stat: float
    critical_value: float
    significant: bool
    strength: str


def pearson(x, y) -> float:
    """Sample Pearson correlation: centered cross products over the product
    of root squared deviations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"series must be 1-D and equal length, got {x.shape} vs {y.shape}")
    n = x.size
    if n < 3:
        raise ValidationError("need at least 3 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0 or syy == 0:
        raise ValidationError("series must not be constant")
    return float((dx * dy).sum()) / (math.sqrt(sxx) * math.sqrt(syy))


def _t_density(x: float, df: float) -> float:
    log_coef = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(log_coef - ((df + 1) / 2) * math.log1p(x * x / df))


@functools.lru_cache(maxsize=256)
def t_upper_critical(df: float, tail: float) -> float:
    """Value t >= 0 whose upper-tail probability under Student-t(df) equals `tail`.

    The tail probability is computed by adaptive quadrature of the density
    (tolerance 1e-10) and inverted by bracketed root finding, so no quantile
    table is involved. Results are memoized per (df, tail), since a report
    tests many correlations with the same df.
    """
    if df < 1:
        raise ValidationError("df must be >= 1")
    if not 0 < tail <= 0.5:
        raise ValidationError("tail probability must be in (0, 0.5]")

    def upper_tail(t: float) -> float:
        body, _ = quad(_t_density, 0.0, t, args=(df,), epsabs=_CDF_QUAD_TOL, epsrel=1e-12)
        return 0.5 - body

    hi = 1.0
    while upper_tail(hi) > tail:
        hi *= 2.0
        if hi > 1e8:
            raise ValidationError(f"no critical value found for tail {tail}")
    return float(brentq(lambda t: upper_tail(t) - tail, 0.0, hi, xtol=1e-10, rtol=1e-12))


def t_test(r: float, n: int, alpha: float = 0.05) -> CorrelationResult:
    """Two-sided significance test of a correlation coefficient.

    t = |r| / sqrt((1 - r^2) / (n - 2)) with n - 2 degrees of freedom,
    compared against the numerically computed critical value at `alpha`.
    A coefficient of exactly +/-1 yields an infinite statistic, flagged
    significant.
    """
    if n < 3:
        raise ValidationError("need n >= 3 for the t test")
    if abs(r) > 1 + 1e-12:
        raise ValidationError(f"|r| must be <= 1, got {r}")
    df = n - 2
    critical = t_upper_critical(df, alpha / 2)
    if abs(r) >= 1:
        t_stat = math.inf
    else:
        t_stat = abs(r) / math.sqrt((1 - r * r) / df)
    return CorrelationResult(
        r=r,
        n=n,
        t_stat=t_stat,
        critical_value=critical,
        significant=t_stat > critical,
        strength=classify_strength(r),
    )


def classify_strength(r: float) -> str:
    """Label |r|: >= 0.8 strong, >= 0.5 moderate, >= 0.3 weak, else negligible.

    The sign of r is the direction and is carried separately by callers.
    """
    if abs(r) > 1 + 1e-12:
        raise ValidationError(f"|r| must be <= 1, got {r}")
    for threshold, label in STRENGTH_THRESHOLDS:
        if abs(r) >= threshold:
            return label
    return "negligible"


def correlation_test(x, y, alpha: float = 0.05) -> CorrelationResult:
    """Convenience composition: pearson + t_test on two series."""
    r = pearson(x, y)
    return t_test(r, len(np.asarray(x)), alpha=alpha)
