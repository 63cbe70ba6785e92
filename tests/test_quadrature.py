"""Adaptive G7/K15 quadrature, and the mining and stats results built on it,
checked against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.special import stdtr, stdtrit

from equimine import mining, stats
from equimine.errors import QuadratureError, ValidationError
from equimine.quadrature import integrate

ORACLE = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def counted(f):
    """f plus a list that records the size of every batch it is called with."""
    calls = []

    def wrapped(x):
        calls.append(x.size)
        return f(x)

    return wrapped, calls


@pytest.mark.parametrize("degree", range(14))
def test_polynomials_to_degree_13_are_exact_without_bisection(rng, degree):
    coef = rng.normal(size=degree + 1)
    a, b = -1.5, 2.5
    antiderivative = P.polyint(coef)
    exact = P.polyval(b, antiderivative) - P.polyval(a, antiderivative)
    f, calls = counted(lambda x: P.polyval(x, coef))
    value = integrate(f, a, b, epsabs=1e-12, epsrel=1e-12)
    assert calls == [15]
    scale = np.abs(coef).sum() * 2.5 ** degree * (b - a)
    assert value == pytest.approx(exact, abs=1e-14 * scale)


def test_degree_15_needs_bisection(rng):
    coef = rng.normal(size=16)
    f, calls = counted(lambda x: P.polyval(x, coef))
    integrate(f, -1.5, 2.5, epsabs=1e-14, epsrel=1e-14)
    assert len(calls) > 1


def test_singular_integrand_exceeds_interval_limit():
    # bisection shrinks the error at the singularity by only 2**-0.05 a split
    with pytest.raises(QuadratureError, match="intervals"):
        integrate(lambda x: x ** -0.95, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)


def test_non_finite_error_estimate_is_quadrature_error():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)


def test_infinite_tail_is_anchored_at_last_cut():
    # Cauchy density on [0, inf): 1/2, whatever the cuts
    cauchy = lambda x: 1 / (math.pi * (1 + x * x))
    for points in ((), (3.0,), (0.5, 3.0, 40.0)):
        value = integrate(cauchy, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12, points=points)
        assert value == pytest.approx(0.5, abs=1e-12)


def test_points_outside_the_range_are_ignored():
    f, calls = counted(lambda x: x * x)
    value = integrate(f, 1.0, 2.0, epsabs=1e-12, epsrel=1e-12, points=(-3.0, 1.0, 2.0, 7.0))
    assert value == pytest.approx(7 / 3, rel=1e-14)
    assert calls == [15]


def test_tail_heavier_than_inverse_square_needs_its_decay():
    # 0.1 (1 + t)**-1.1 integrates to 1 over [0, inf); the plain map leaves
    # a u**-0.9 singularity at u = 0, the decay-aware map a bounded integrand
    f = lambda t: 0.1 * (1.0 + t) ** -1.1
    with pytest.raises(QuadratureError):
        integrate(f, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12)
    assert integrate(f, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12,
                     tail_decay=1.1) == pytest.approx(1.0, abs=1e-12)


def upper_mass(dof, x):
    """P(T > x) for Student-t(dof), free of cancellation for either sign of x."""
    return float(stdtr(dof, -x))


def log_uniform(lo, hi):
    """dof (or df) from 10**lo to 10**hi, log-uniformly."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def curves_and_windows(draw, dofs=st.floats(mining.MIN_DOF, 100.0)):
    dof = draw(dofs)
    location = draw(st.floats(-5.0, 60.0))
    scale = draw(st.floats(0.1, 40.0))
    t1 = draw(st.floats(0.0, 100.0))
    t2 = draw(st.one_of(st.just(math.inf), st.floats(0.01, 100.0).map(lambda w: t1 + w)))
    return dof, location, scale, t1, t2


def assert_matches_closed_form_t_cdf(case):
    dof, location, scale, t1, t2 = case
    mass = upper_mass(dof, -location / scale)
    if mass == 0.0:  # below the smallest float: there is no curve to renormalise
        with pytest.raises(ValidationError, match="positive_mass"):
            mining.MiningCurveParams(dof=dof, location=location, scale=scale)
        return
    params = mining.MiningCurveParams(dof=dof, location=location, scale=scale, total_value=1.0)
    assert params.positive_mass == pytest.approx(mass, abs=1e-10)
    x1, x2 = (t1 - location) / scale, (t2 - location) / scale
    if x1 > 0:  # both edges right of the peak: difference of upper tails
        window_mass = upper_mass(dof, x1) - upper_mass(dof, x2)
    else:
        window_mass = float(stdtr(dof, x2) - stdtr(dof, x1))
    fraction = mining.income(mining.RevenueWindow(t1, t2), params)
    assert fraction == pytest.approx(window_mass / mass, abs=1e-8)


@ORACLE
@given(curves_and_windows())
def test_mass_and_income_match_closed_form_t_cdf(case):
    assert_matches_closed_form_t_cdf(case)


@ORACLE
@given(curves_and_windows(log_uniform(2.0, 8.0)))
def test_large_dof_mass_and_income_match_closed_form_t_cdf(case):
    assert_matches_closed_form_t_cdf(case)


@pytest.mark.parametrize("dof", [mining.MIN_DOF, 0.1, 0.2, 0.3])
def test_heavy_tails_match_closed_form_t_cdf(dof):
    params = mining.MiningCurveParams(dof=dof, location=15.0, scale=5.0, total_value=1.0)
    mass = upper_mass(dof, -3.0)
    assert params.positive_mass == pytest.approx(mass, abs=1e-12)
    fraction = mining.income(mining.RevenueWindow(20.0, math.inf), params)
    assert fraction == pytest.approx(upper_mass(dof, 1.0) / mass, abs=1e-10)


@ORACLE
@given(st.floats(1.0, 100.0), st.floats(1e-4, 0.5))
def test_t_upper_critical_matches_closed_form_quantile(df, tail):
    assert stats.t_upper_critical(df, tail) == pytest.approx(
        float(stdtrit(df, 1 - tail)), abs=1e-8)


@ORACLE
@given(log_uniform(2.0, 6.0), st.floats(1e-4, 0.5))
def test_t_upper_critical_matches_closed_form_quantile_at_large_df(df, tail):
    assert stats.t_upper_critical(df, tail) == pytest.approx(
        float(stdtrit(df, 1 - tail)), abs=1e-8)
