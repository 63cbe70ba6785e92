import math

import numpy as np
import pytest
from conftest import ORACLE, log_uniform
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import stdtr

from equimine import mining
from equimine.errors import ValidationError
from equimine.mining import (
    MiningCurveParams,
    RevenueWindow,
    extraction_rate,
    income,
    profit,
    t_density,
    t_sf,
)


def trapezoid_rate_integral(params, t1, t2, points=200_001):
    """Independent oracle: dense trapezoid rule on the rate."""
    grid = np.linspace(t1, t2, points)
    return float(np.trapezoid(extraction_rate(grid, params), grid))


class TestCurveParams:
    def test_cauchy_density_at_peak(self):
        assert t_density(0.0, 1.0) == pytest.approx(1 / math.pi, rel=1e-12)

    def test_positive_mass_for_centered_curve_is_half(self):
        p = MiningCurveParams(dof=1.0, location=0.0, scale=1.0, total_value=1.0)
        assert p.positive_mass == pytest.approx(0.5, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MiningCurveParams(dof=0.0)
        with pytest.raises(ValidationError):
            MiningCurveParams(scale=-1.0)
        with pytest.raises(ValidationError):
            MiningCurveParams(total_value=-5.0)
        with pytest.raises(ValidationError):
            MiningCurveParams(positive_mass=1.5)

    def test_dof_below_minimum_rejected(self):
        with pytest.raises(ValidationError, match="dof must be"):
            MiningCurveParams(dof=0.01)

    def test_dof_overflowing_the_normalising_constant_rejected(self):
        with pytest.raises(ValidationError, match="normalising constant"):
            MiningCurveParams(dof=1e308)

    def test_log_norm_is_continuous_at_the_series_switch(self):
        above = math.nextafter(mining._SERIES_DOF, math.inf)
        assert mining._log_norm(above) == pytest.approx(mining._log_norm(mining._SERIES_DOF),
                                                        abs=1e-13)

    def test_large_dof_mass_is_not_lost_to_cancellation(self):
        # the lgamma difference alone summed this mass to 1 + 9.4e-12
        p = MiningCurveParams(dof=1e4)
        assert p.positive_mass == pytest.approx(float(stdtr(1e4, 3.0)), abs=1e-13)


class TestNarrowPeakFarFromZero:
    """A peak of width 0.1 at t = 60 or 100, far right of t = 0: its mass is a
    difference of t tails, whatever the window's width."""

    def test_peak_at_60_holds_all_value_in_window(self):
        p = MiningCurveParams(dof=10.0, location=60.0, scale=0.1, total_value=7e13)
        assert p.positive_mass == pytest.approx(1.0, abs=1e-12)
        assert income(RevenueWindow(0.0, 100.0), p) == pytest.approx(7e13, rel=1e-9)

    def test_peak_at_100_is_accepted(self):
        p = MiningCurveParams(dof=5.0, location=100.0, scale=0.1, total_value=7e13)
        assert p.positive_mass == pytest.approx(1.0, abs=1e-12)
        assert income(RevenueWindow(0.0, math.inf), p) == pytest.approx(7e13, rel=1e-9)
        assert income(RevenueWindow(0.0, 100.0), p) == pytest.approx(3.5e13, rel=1e-9)


class TestExtractionRate:
    def test_cauchy_renormalized_peak(self):
        p = MiningCurveParams(dof=1.0, location=0.0, scale=1.0, total_value=1.0)
        assert extraction_rate(0.0, p) == pytest.approx(2 / math.pi, rel=1e-9)

    def test_maximized_at_location(self):
        p = MiningCurveParams()
        grid = np.linspace(0.0, 60.0, 6001)
        rates = extraction_rate(grid, p)
        assert grid[np.argmax(rates)] == pytest.approx(p.location, abs=0.011)

    def test_nonnegative_and_integrates_to_one(self):
        p = MiningCurveParams(dof=3.0, location=12.0, scale=4.0)
        assert np.all(extraction_rate(np.linspace(0, 100, 1001), p) >= 0)
        assert income(RevenueWindow(0.0, math.inf), MiningCurveParams(
            dof=3.0, location=12.0, scale=4.0, total_value=1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            extraction_rate(-0.1, MiningCurveParams())

    def test_rate_at_infinity_is_zero(self):
        assert extraction_rate(math.inf, MiningCurveParams()) == 0.0


class TestIncome:
    def test_full_horizon_equals_total_value(self):
        p = MiningCurveParams()
        total = income(RevenueWindow(0.0, math.inf), p)
        assert total == pytest.approx(p.total_value, rel=1e-6)

    def test_paper_literal_is_edge_rate_difference(self):
        p = MiningCurveParams()
        w = RevenueWindow(10.0, 20.0)
        assert income(w, p, mode="paper-literal") == pytest.approx(
            p.total_value * (extraction_rate(20.0, p) - extraction_rate(10.0, p))
        )
        # equal rates at both edges (the zero-width limit) give exactly zero;
        # a window symmetric around the peak realizes that
        symmetric = RevenueWindow(p.location - 3, p.location + 3)
        assert income(symmetric, p, mode="paper-literal") == 0.0

    def test_below_mode_mass_matches_trapezoid_oracle(self):
        p = MiningCurveParams(dof=4.0, location=18.0, scale=6.0, total_value=70e12)
        ours = income(RevenueWindow(0.0, p.location), p)
        oracle = p.total_value * trapezoid_rate_integral(p, 0.0, p.location)
        assert ours == pytest.approx(oracle, rel=1e-6)

    def test_additivity(self):
        p = MiningCurveParams()
        parts = income(RevenueWindow(0.0, 8.0), p) + income(RevenueWindow(8.0, 31.0), p)
        assert parts == pytest.approx(income(RevenueWindow(0.0, 31.0), p), abs=1e-9 * p.total_value)

    def test_monotone_in_upper_bound(self):
        p = MiningCurveParams()
        values = [income(RevenueWindow(0.0, t2), p) for t2 in (5.0, 10.0, 20.0, 40.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            income(RevenueWindow(0.0, 1.0), MiningCurveParams(), mode="weird")


class TestWindowAndProfit:
    def test_window_validation(self):
        with pytest.raises(ValidationError):
            RevenueWindow(5.0, 5.0)
        with pytest.raises(ValidationError):
            RevenueWindow(-1.0, 5.0)
        with pytest.raises(ValidationError):
            RevenueWindow(0.0, 5.0, cost=-2.0)

    def test_profit_examples(self):
        assert profit(100.0, 30.0) == 70.0
        assert profit(0.0, 0.0) == 0.0

    def test_full_horizon_profit_with_zero_cost(self):
        p = MiningCurveParams()
        assert profit(income(RevenueWindow(0.0, math.inf), p), 0.0) == pytest.approx(
            p.total_value, rel=1e-6
        )


def upper_mass(dof, x):
    """P(T > x) for Student-t(dof), free of cancellation for either sign of x."""
    return float(stdtr(dof, -x))


def window_mass(dof, x1, x2):
    """P(x1 < T < x2) for Student-t(dof), from scipy."""
    if x1 > 0:  # both edges right of the peak: difference of upper tails
        return upper_mass(dof, x1) - upper_mass(dof, x2)
    return float(stdtr(dof, x2) - stdtr(dof, x1))


# t_sf against scipy's stdtr: dof from MIN_DOF to 1e20 and |t| <= 1e6
SF_DOFS = [*np.geomspace(mining.MIN_DOF, 1e20, 45).tolist(), 1.0, 2.0, 5.0, 1e3]
SF_TS = [0.0, *(sign * t for t in (1e-3, 1e-2, 0.1, 0.5, 1, 1.7, 2, 3, 5, 10, 30, 100, 1e3,
                                    1e4, 1e6) for sign in (1, -1))]


@pytest.mark.parametrize("dof", SF_DOFS)
def test_t_sf_matches_stdtr(dof):
    rel = 1e-12 if dof <= 1e3 else 1e-10
    for t in SF_TS:
        expected = upper_mass(dof, t)
        if expected == 0.0:  # stdtr underflows: below the smallest float
            continue
        assert t_sf(t, dof) == pytest.approx(expected, rel=rel, abs=0), t


def test_t_sf_at_the_infinities():
    assert (t_sf(math.inf, 5.0), t_sf(-math.inf, 5.0)) == (0.0, 1.0)
    assert (t_sf(math.inf, 1e6), t_sf(-math.inf, 1e6)) == (0.0, 1.0)


@pytest.mark.parametrize("curve", [
    {"location": 1e9}, {"scale": 1e-9}, {"location": 1e3, "scale": 1e-3},
], ids=["location-1e9", "scale-1e-9", "scale-1e-3-at-1e3"])
def test_curves_past_the_old_interval_limit_match_stdtr(curve):
    p = MiningCurveParams(**curve)
    mass = upper_mass(p.dof, -p.location / p.scale)
    assert p.positive_mass == pytest.approx(mass, rel=1e-9)
    for t1, t2 in ((0.0, p.location), (p.location - 2 * p.scale, p.location + 3 * p.scale),
                   (p.location + p.scale, math.inf), (0.0, math.inf)):
        x1, x2 = (t1 - p.location) / p.scale, (t2 - p.location) / p.scale
        expected = p.total_value * window_mass(p.dof, x1, x2) / mass
        assert math.isfinite(expected)
        assert income(RevenueWindow(t1, t2), p) == pytest.approx(expected, rel=1e-9)


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
    fraction = mining.income(mining.RevenueWindow(t1, t2), params)
    assert fraction == pytest.approx(window_mass(dof, x1, x2) / mass, abs=1e-8)


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
