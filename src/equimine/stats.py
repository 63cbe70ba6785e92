"""Pearson correlation with t-significance testing and strength labels."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .mining import t_density, t_sf

# |r| bins for the strength label; conventional, carried as shipped defaults.
STRENGTH_THRESHOLDS = ((0.8, "strong"), (0.5, "moderate"), (0.3, "weak"))
DEFAULT_ALPHA = 0.05  # two-sided significance level of the correlation t test

_ROOT_XTOL, _ROOT_RTOL, _ROOT_MAXITER = 1e-10, 1e-12, 100  # brentq's stop rule and cap


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
    of root squared deviations. Series whose sums of squares or cross
    products overflow the float range raise ValidationError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"series must be 1-D and equal length, got {x.shape} vs {y.shape}")
    n = x.size
    if n < 3:
        raise ValidationError("need at least 3 points")
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        sxx = float((dx * dx).sum())
        syy = float((dy * dy).sum())
        sxy = float((dx * dy).sum())
    if not all(map(math.isfinite, (sxx, syy, sxy))):
        raise ValidationError("series too large to correlate: a sum of squares or cross "
                              "products overflows the float range")
    if sxx == 0 or syy == 0:
        raise ValidationError("series must not be constant")
    return sxy / (math.sqrt(sxx) * math.sqrt(syy))


@functools.lru_cache(maxsize=256)
def t_upper_critical(df: float, tail: float) -> float:
    """Value t >= 0 whose upper-tail probability under Student-t(df) equals `tail`.

    The tail probability is the closed-form t CDF `mining.t_sf`, inverted by
    Newton steps, whose derivative is minus the density, inside a shrinking
    bracket; a step that would leave the bracket is replaced by bisection. No
    quantile table is involved. Results are memoized per (df, tail), since a
    report tests many correlations with the same df.
    """
    if df < 1:
        raise ValidationError("df must be >= 1")
    if not 0 < tail <= 0.5:
        raise ValidationError("tail probability must be in (0, 0.5]")

    def excess(t: float) -> float:
        return t_sf(t, df) - tail

    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e8:
            raise ValidationError(f"no critical value found for tail {tail}")
    t, g = lo, excess(lo)
    for _ in range(_ROOT_MAXITER):
        step = g / t_density(t, df)
        if not lo <= t + step <= hi:
            step = 0.5 * (lo + hi) - t
        t += step
        if abs(step) <= _ROOT_XTOL + _ROOT_RTOL * t:
            return t
        g = excess(t)
        lo, hi = (t, hi) if g > 0 else (lo, t)
    raise ConvergenceError(f"t critical value for df {df}, tail {tail}", _ROOT_MAXITER)


def t_test(r: float, n: int, alpha: float = DEFAULT_ALPHA) -> CorrelationResult:
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
