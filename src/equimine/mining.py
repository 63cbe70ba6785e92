"""Mining-revenue model: a located/scaled Student-t curve for the extraction rate.

The extraction rate rises to a peak and falls again, so it is modeled as a
Student-t probability density shifted to the peak year and stretched by a
scale factor. Only t >= 0 is physical, so the density is renormalized by its
mass on the positive half-line; total extractable value then integrates to
exactly the configured total.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quadrature import integrate

DEFAULT_DOF = 5.0
DEFAULT_LOCATION = 15.0  # years until peak extraction
DEFAULT_SCALE = 5.0
DEFAULT_TOTAL_VALUE = 70e12
# Below this the tail keeps so much mass past the largest float (a share of
# about t**-dof beyond t) that the tail quadrature's map t(u) overflows.
MIN_DOF = 0.05

INCOME_MODES = ("cumulative", "paper-literal")
DEFAULT_INCOME_MODE = "cumulative"

_RATE_QUAD_ABSTOL = 1e-9  # on the rate integral, i.e. 1e-9 * V on income
# Above this dof the lgamma difference loses about dof * 1e-16 to cancellation
# (7.5e-14 here) while the series' first omitted term is 1.5e-16.
_SERIES_DOF = 1e3


def _log_norm(dof: float) -> float:
    """Log of the t density's normalising constant Gamma((d+1)/2) / (Gamma(d/2) sqrt(d pi));
    nan where d pi overflows a float (d above about 5.7e307).

    Above _SERIES_DOF, lgamma((d + 1)/2) - lgamma(d/2) is taken from its
    asymptotic series ln(x)/2 - 1/(8x) + 1/(192x^3) - ..., x = d/2
    (Abramowitz & Stegun 6.1.47), whose ln(x)/2 cancels against ln(d pi)/2.
    """
    if not math.isfinite(dof * math.pi):
        return math.nan
    if dof > _SERIES_DOF:
        u = 1.0 / dof
        return -0.5 * math.log(2 * math.pi) - u / 4 + u ** 3 / 24
    return math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)


def t_density(y, dof: float):
    """Standard Student-t probability density with `dof` degrees of freedom."""
    y = np.asarray(y, dtype=float)
    out = np.exp(_log_norm(dof) - ((dof + 1) / 2) * np.log1p(y * y / dof))
    return out if out.ndim else float(out)


@dataclass
class MiningCurveParams:
    """Curve parameters: t-distribution dof, peak year, scale, total value.

    positive_mass caches the curve's mass on t in [0, inf) before
    renormalization; it is computed by quadrature split at the peak when not
    supplied. A dof below MIN_DOF, or one whose density normalising constant
    overflows, is rejected.
    """

    dof: float = DEFAULT_DOF
    location: float = DEFAULT_LOCATION
    scale: float = DEFAULT_SCALE
    total_value: float = DEFAULT_TOTAL_VALUE
    positive_mass: float = None

    def __post_init__(self):
        if not (self.dof >= MIN_DOF and math.isfinite(self.dof)):
            raise ValidationError(f"dof must be a real >= {MIN_DOF}, got {self.dof}")
        if not math.isfinite(_log_norm(self.dof)):
            raise ValidationError(f"dof {self.dof} overflows the t density's normalising constant")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValidationError("scale must be a positive real")
        if not math.isfinite(self.location):
            raise ValidationError("location must be finite")
        if not (self.total_value >= 0 and math.isfinite(self.total_value)):
            raise ValidationError("total_value must be >= 0")
        if self.positive_mass is None:
            density = lambda t: t_density((t - self.location) / self.scale, self.dof) / self.scale
            self.positive_mass = integrate(density, 0.0, math.inf, epsabs=0.0, epsrel=1e-12,
                                           points=(self.location,), tail_decay=self.dof + 1)
        if not (0.0 < self.positive_mass <= 1.0 + 1e-12):
            raise ValidationError(f"positive_mass must be in (0, 1], got {self.positive_mass}")


@dataclass
class RevenueWindow:
    """Integration window [t1, t2] in years plus the venture cost."""

    t1: float
    t2: float
    cost: float = 0.0

    def __post_init__(self):
        if not (0 <= self.t1 < self.t2):
            raise ValidationError(f"need 0 <= t1 < t2, got [{self.t1}, {self.t2}]")
        if not (self.cost >= 0 and math.isfinite(self.cost)):
            raise ValidationError("cost must be finite and >= 0")


def extraction_rate(t, params: MiningCurveParams):
    """Fraction of total value extracted per year at time t >= 0.

    This is the located/scaled t density divided by its positive-half mass,
    so it integrates to 1 over [0, inf). Accepts scalars or arrays; the rate
    at t = +inf is 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValidationError("extraction rate is defined for t >= 0 only")
    with np.errstate(invalid="ignore"):
        y = (t_arr - params.location) / params.scale
        rate = t_density(y, params.dof) / (params.scale * params.positive_mass)
    rate = np.where(np.isinf(t_arr), 0.0, rate)
    return rate if rate.ndim else float(rate)


def income(window: RevenueWindow, params: MiningCurveParams,
           mode: str = DEFAULT_INCOME_MODE) -> float:
    """Income over the window.

    "cumulative" integrates rate * V over [t1, t2] by adaptive quadrature
    split at the peak (absolute tolerance 1e-9 * V; QuadratureError when it
    cannot be met). "paper-literal" evaluates the rate difference at the
    window edges, V * (rate(t2) - rate(t1)): the literal result of
    integrating the rate's derivative instead of the rate itself.
    """
    if mode == "paper-literal":
        return params.total_value * (
            extraction_rate(window.t2, params) - extraction_rate(window.t1, params)
        )
    if mode != "cumulative":
        raise ValidationError(f"unknown income mode {mode!r}")
    frac = integrate(lambda t: extraction_rate(t, params), window.t1, window.t2,
                     epsabs=_RATE_QUAD_ABSTOL, epsrel=1e-10, points=(params.location,),
                     tail_decay=params.dof + 1)
    return params.total_value * frac


def profit(income_value: float, cost: float) -> float:
    """Income minus cost; may be negative."""
    return income_value - cost
