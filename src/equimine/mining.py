"""Mining-revenue model: a located/scaled Student-t curve for the extraction rate.

The extraction rate rises to a peak and falls again, so it is modeled as a
Student-t probability density shifted to the peak year and stretched by a
scale factor. Only t >= 0 is physical, so the density is renormalized by its
mass on the positive half-line; total extractable value then integrates to
exactly the configured total. Every mass the model needs is a closed-form t
tail probability, `t_sf`.
"""

import math
from dataclasses import dataclass, field

from .errors import EquimineError, ValidationError

# The lower end of the dof range in README's Scenario JSON line; t_sf itself needs no bound.
MIN_DOF = 0.05

INCOME_MODES = ("cumulative", "paper-literal")
DEFAULT_INCOME_MODE = "cumulative"

# Above this dof the lgamma difference loses up to 3.5e-14 (dof 50 to 100) and
# 7.9e-13 (500 to 1e3) to cancellation; the series' first omitted term is below 5e-16.
_SERIES_DOF = 50.0
# Above this dof t_sf takes the large-a expansion. Against mpmath, the continued
# fraction stays within 1.5e-13 up to here but reaches 6.4e-13 at dof 1e4 and
# 2.5e-11 at 1e6; five terms of the expansion, p_1 .. p_5 at b = 1/2 (DiDonato &
# Morris 1992, eq. 9.4), stay within 2.4e-13 from here to 1e20 (9e-10 at dof 1e3).
_LARGE_DOF = 2e3
_EXPANSION_P = (-1 / 12, 1 / 160, -61 / 120960, 1261 / 29030400, -79 / 20275200)
_CF_MAXITER = 200  # the fraction took at most 55 steps on a dense grid up to _LARGE_DOF
_TINY = 1e-300  # the modified Lentz method's stand-in for a zero denominator


def _log_norm(dof: float) -> float:
    """Log of the t density's normalising constant Gamma((d+1)/2) / (Gamma(d/2) sqrt(d pi));
    nan where d pi overflows a float (d above about 5.7e307).

    Above _SERIES_DOF, lgamma((d + 1)/2) - lgamma(d/2) is taken from its
    asymptotic series ln(x)/2 - 1/(8x) + 1/(192x^3) - 1/(640x^5) + 17/(14336x^7),
    x = d/2 (Abramowitz & Stegun 6.1.47), whose ln(x)/2 cancels against ln(d pi)/2.
    """
    if not math.isfinite(dof * math.pi):
        return math.nan
    if dof > _SERIES_DOF:
        u, v = 1.0 / dof, dof ** -2.0
        return -0.5 * math.log(2 * math.pi) - u * (0.25 - v * (1 / 24 - v * (0.05 - v * 17 / 112)))
    return math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)


def t_density(y: float, dof: float) -> float:
    """Standard Student-t probability density with `dof` degrees of freedom."""
    return math.exp(_log_norm(dof) - ((dof + 1) / 2) * math.log1p(y * y / dof))


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * value,
    by the modified Lentz method (Numerical Recipes 6.4; Lentz 1976)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    value = d = 1.0 / (d if abs(d) > _TINY else _TINY)
    for m in range(1, _CF_MAXITER):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d, c = 1.0 + coef * d, 1.0 + coef / c
            d, c = 1.0 / (d if abs(d) > _TINY else _TINY), (c if abs(c) > _TINY else _TINY)
            value *= d * c
        if abs(d * c - 1.0) <= 2.2e-16:  # the last step moved the value by at most an ulp
            return value
    raise EquimineError(f"incomplete beta fraction at a={a}, b={b}, x={x} (after {_CF_MAXITER} "
                        "iterations)")


def t_sf(t: float, dof: float) -> float:
    """Upper tail probability P(T > t) of the standard Student-t with `dof` degrees of freedom.

    For t > 0 it is I_x(a, 1/2) / 2 with a = dof/2, x = dof / (dof + t^2) (Abramowitz
    & Stegun 26.5.27, 26.7.1), ln x and ln(1 - x) both formed from t / sqrt(dof);
    t < 0 gives 1 - t_sf(-t) and t = inf gives 0. Up to _LARGE_DOF, I is its
    continued fraction where that converges fast, x < (a + 1)/(a + 5/2), else
    1 - I_(1-x)(1/2, a). Above, I is its expansion in incomplete gammas for large a
    (DiDonato & Morris 1992, Algorithm 708, BGRAT): with T = a - 1/4 and
    u = -T ln x, the first term is erfc(sqrt(u)), each later one about 1/T^2 smaller.
    """
    if t < 0:
        return 1.0 - t_sf(-t, dof)
    r = t / math.sqrt(dof)
    if r == 0 or r == math.inf:
        return 0.5 if r == 0 else 0.0
    log_q, s = 2 * math.log(r), math.log1p(min(r, 1 / r) ** 2)  # ln(t^2/dof), ln(1 + q or 1/q)
    log_x, log_y = -max(log_q, 0.0) - s, min(log_q, 0.0) - s  # ln x, ln(1 - x)
    a = dof / 2
    if dof > _LARGE_DOF:
        big_t, u = a - 0.25, (0.25 - a) * log_x
        h = math.sqrt(u / math.pi) * math.exp(-u)  # u^b e^-u / Gamma(b)
        j = total = math.erfc(math.sqrt(u))
        for n, p in enumerate(_EXPANSION_P, 1):  # J_n from J_(n-1), eq. 9.6
            j = ((2 * n - 1.5) * (2 * n - 0.5) * j
                 + (u + 2 * n - 0.5) * (log_x / 2) ** (2 * n - 2) * h) / (4 * big_t * big_t)
            total += p * j
        # times Gamma(a + 1/2) / (Gamma(a) sqrt(T)), from the normalising constant
        return 0.5 * total * math.exp(_log_norm(dof) + 0.5 * math.log(math.tau / (1 - 0.5 / dof)))
    x = math.exp(log_x)
    front = math.exp(a * log_x + log_y / 2 + _log_norm(dof) + 0.5 * math.log(dof))  # x^a y^b / B
    if x < (a + 1) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / dof
    return 0.5 - front * _beta_cf(0.5, a, math.exp(log_y))


@dataclass
class MiningCurveParams:
    """Curve parameters: t-distribution dof, peak year, scale, total value.

    positive_mass caches the curve's mass on t in [0, inf) before
    renormalization, t_sf(-location / scale); a mass that underflows to 0 is
    rejected. So is a dof below MIN_DOF, or one whose density normalising
    constant overflows.
    """

    dof: float = 5.0
    location: float = 15.0  # years until peak extraction
    scale: float = 5.0
    total_value: float = 70e12
    positive_mass: float = field(init=False)

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
        self.positive_mass = t_sf(-self.location / self.scale, self.dof)
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


def extraction_rate(t: float, params: MiningCurveParams) -> float:
    """Fraction of total value extracted per year at time t >= 0.

    This is the located/scaled t density divided by its positive-half mass,
    so it integrates to 1 over [0, inf). The rate at t = +inf is 0.
    """
    if t < 0:
        raise ValidationError("extraction rate is defined for t >= 0 only")
    if t == math.inf:
        return 0.0
    y = (t - params.location) / params.scale
    return t_density(y, params.dof) / (params.scale * params.positive_mass)


def income(window: RevenueWindow, params: MiningCurveParams,
           mode: str = DEFAULT_INCOME_MODE) -> float:
    """Income over the window.

    "cumulative" integrates rate * V over [t1, t2] in closed form: V times the
    curve's mass between the window edges over positive_mass. That mass is a
    difference of upper tails t_sf when both edges lie right of the peak (a
    window left of it is mirrored there) and 1 minus both outer tails when the
    peak lies inside, so no digits cancel. "paper-literal" evaluates the rate
    difference at the window edges, V * (rate(t2) - rate(t1)): the literal
    result of integrating the rate's derivative instead of the rate itself.
    """
    if mode == "paper-literal":
        return params.total_value * (
            extraction_rate(window.t2, params) - extraction_rate(window.t1, params)
        )
    if mode != "cumulative":
        raise ValidationError(f"unknown income mode {mode!r}")
    dof = params.dof
    z1, z2 = ((t - params.location) / params.scale for t in (window.t1, window.t2))
    if z2 <= 0:  # both edges left of the peak: lower tails are mirrored upper tails
        z1, z2 = -z2, -z1
    mass = t_sf(z1, dof) - t_sf(z2, dof) if z1 >= 0 else 1.0 - t_sf(z2, dof) - t_sf(-z1, dof)
    return params.total_value * mass / params.positive_mass


def profit(income_value: float, cost: float) -> float:
    """Income minus cost; may be negative."""
    return income_value - cost
