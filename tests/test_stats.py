import csv
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import ORACLE, log_uniform
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import stdtrit
from scipy.stats import t as scipy_t

from equimine import stats
from equimine.errors import ValidationError

FIXTURE = Path(__file__).parent / "fixtures" / "t_table.csv"

# Printed rows in the shipped table that are internally inconsistent: the two
# n=200 tail entries are offset one column (1.653 is the 0.05 one-sided value,
# 1.972 the two-sided one). They are carried verbatim but not asserted against.
INCONSISTENT_ROWS = {(200, 0.1), (200, 0.05)}


def load_t_table():
    with open(FIXTURE, newline="") as handle:
        return [(int(r["n"]), float(r["p"]), float(r["value"]))
                for r in csv.DictReader(handle)]


def pearson_oracle(x, y):
    """Independent two-pass scalar implementation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / (math.sqrt(sxx) * math.sqrt(syy))


class TestPearson:
    def test_perfect_linear(self):
        assert stats.pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert stats.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_oracle_on_random(self, rng):
        for _ in range(100):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert stats.pearson(x, y) == pytest.approx(pearson_oracle(list(x), list(y)),
                                                        abs=1e-12)

    def test_symmetry_exact(self, rng):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert stats.pearson(x, y) == stats.pearson(y, x)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        r = stats.pearson(x, y)
        assert stats.pearson(3.5 * x + 2.0, y) == pytest.approx(r, abs=1e-12)
        assert stats.pearson(-2.0 * x + 1.0, y) == pytest.approx(-r, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            stats.pearson([1, 2], [1, 2])
        with pytest.raises(ValidationError):
            stats.pearson([1, 2, 3], [1, 2])
        with pytest.raises(ValidationError):
            stats.pearson([1.0, 1.0, 1.0], [1, 2, 3])


class TestCriticalValues:
    def test_matches_scipy_quantiles(self):
        for df, tail in [(5, 0.025), (10, 0.05), (98, 0.25), (30, 0.005)]:
            assert stats.t_upper_critical(df, tail) == pytest.approx(
                scipy_t.ppf(1 - tail, df), abs=1e-8
            )

    def test_fixture_rows_within_tolerance(self):
        for n, p, printed in load_t_table():
            if (n, p) in INCONSISTENT_ROWS:
                continue
            assert stats.t_upper_critical(n - 2, p) == pytest.approx(printed, abs=0.02), (n, p)

    def test_inconsistent_rows_documented(self):
        # confirm the excluded rows really do not match their own column
        table = {(n, p): v for n, p, v in load_t_table()}
        for n, p in INCONSISTENT_ROWS:
            assert abs(stats.t_upper_critical(n - 2, p) - table[(n, p)]) > 0.02

    def test_tail_validation(self):
        with pytest.raises(ValidationError):
            stats.t_upper_critical(5, 0.8)
        with pytest.raises(ValidationError):
            stats.t_upper_critical(0.5, 0.05)

    def test_memoized_per_df_and_tail(self):
        stats.t_upper_critical.cache_clear()
        first = stats.t_upper_critical(17, 0.025)
        assert stats.t_upper_critical(17, 0.025) is first
        assert stats.t_upper_critical.cache_info().hits == 1
        assert stats.t_upper_critical.__wrapped__(17, 0.025) == first
        for df, tail in [(5, 0.8), (0.5, 0.05)]:
            for _ in range(2):  # a rejected input is not cached
                with pytest.raises(ValidationError):
                    stats.t_upper_critical(df, tail)


class TestTTest:
    def test_reference_statistic(self):
        result = stats.t_test(0.78, 7)
        assert result.t_stat == pytest.approx(2.7871, abs=1e-3)
        assert result.significant  # 2.787 > two-sided 0.05 critical of 2.571
        assert result.critical_value == pytest.approx(2.5706, abs=1e-3)

    def test_zero_r_not_significant(self):
        for n in (3, 10, 50):
            result = stats.t_test(0.0, n)
            assert result.t_stat == 0.0
            assert not result.significant

    def test_perfect_correlation_infinite_statistic(self):
        result = stats.t_test(1.0, 5)
        assert math.isinf(result.t_stat)
        assert result.significant

    def test_monotone_in_abs_r(self):
        values = [stats.t_test(r, 12).t_stat for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            stats.t_test(0.5, 2)
        with pytest.raises(ValidationError):
            stats.t_test(1.5, 10)


class TestClassifyStrength:
    def test_bins(self):
        assert stats.classify_strength(0.871) == "strong"
        assert stats.classify_strength(-0.6) == "moderate"
        assert stats.classify_strength(0.35) == "weak"
        assert stats.classify_strength(0.0) == "negligible"
        assert stats.classify_strength(-0.29) == "negligible"
        assert stats.classify_strength(0.8) == "strong"
        assert stats.classify_strength(0.5) == "moderate"
        assert stats.classify_strength(0.3) == "weak"

    def test_validation(self):
        with pytest.raises(ValidationError):
            stats.classify_strength(1.01)


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
