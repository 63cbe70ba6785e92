import numpy as np
import pytest

from equimine import equity
from equimine.equity import (
    DEFAULT_SCORE_WEIGHTS,
    IndicatorVector,
    country_score,
    global_equity_index,
)
from equimine.errors import ValidationError


class TestCountryScore:
    def test_all_ones_matches_coefficient_sum(self):
        v = IndicatorVector(1, 1, 1, 1, 1, 1, 1)
        assert country_score(v) == pytest.approx(1.0007, abs=1e-12)

    def test_all_zero(self):
        assert country_score(IndicatorVector(0, 0, 0, 0, 0, 0, 0)) == 0.0

    def test_single_indicator_coefficient(self):
        assert country_score(IndicatorVector(1, 0, 0, 0, 0, 0, 0)) == 0.187

    def test_custom_weights(self):
        v = IndicatorVector(1, 2, 3, 4, 5, 6, 7)
        w = np.full(7, 1 / 7)
        assert country_score(v, w) == pytest.approx(4.0)

    def test_weight_length_validated(self):
        with pytest.raises(ValidationError):
            country_score(IndicatorVector(1, 0, 0, 0, 0, 0, 0), [0.5, 0.5])

    @pytest.mark.parametrize("position", range(7))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_indicator_rejected(self, value, position):
        fields = [0.5] * 7
        fields[position] = value
        with pytest.raises(ValidationError, match="finite"):
            IndicatorVector(*fields)

    @pytest.mark.parametrize("value", [None, "1", 10**400, [1.0, 2.0]],
                             ids=["none", "string", "int-past-float-range", "list"])
    def test_non_numeric_indicator_rejected(self, value):
        with pytest.raises(ValidationError, match="finite"):
            IndicatorVector(0.5, 0.5, 0.5, value, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("fields", [
        (1, 0, 2, 0, 3, 0, 4),
        (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1e300),
        tuple(np.linspace(0.0, 1.0, 7)),  # numpy float64 scalars, as a panel row unpacks
    ], ids=["int", "float", "float64"])
    def test_finite_numbers_accepted(self, fields):
        assert country_score(IndicatorVector(*fields)) == float(
            equity.development_scores(np.array(fields, dtype=float)))

    def test_default_weights_frozen(self):
        assert DEFAULT_SCORE_WEIGHTS == (0.187, 0.387, 0.097, 0.0436, 0.086, 0.0831, 0.117)


class TestGlobalEquityIndex:
    def test_identical_countries_give_zero(self):
        ge = global_equity_index([[3.0, 3.0, 3.0], [5.0, 5.0, 5.0]])
        assert abs(ge) < 1e-30

    def test_hand_derived_two_country_case(self):
        # scores [2, 1]: ratios [2, 0.5], mean 1.25, GE = 2 * 0.75^2 / 2
        assert global_equity_index([[2.0, 1.0]]) == pytest.approx(0.5625, abs=1e-12)

    def test_scale_invariance(self, rng):
        for _ in range(100):
            t, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
            scores = rng.uniform(0.5, 5.0, (t, n))
            scaled = scores.copy()
            year = int(rng.integers(0, t))
            scaled[year] *= rng.uniform(0.1, 10.0)
            assert global_equity_index(scaled) == pytest.approx(
                global_equity_index(scores), abs=1e-12, rel=1e-12
            )

    def test_duplicate_years_average_out(self, rng):
        # GE is the mean of per-year dispersion terms, so repeating the whole
        # panel leaves it unchanged, and repeating a single year reproduces
        # the exact weighted decomposition.
        scores = rng.uniform(0.5, 5.0, (3, 4))
        ge = global_equity_index(scores)
        assert global_equity_index(np.vstack([scores, scores])) == pytest.approx(ge, rel=1e-15)
        same_year_twice = np.vstack([scores[1:2], scores[1:2]])
        assert global_equity_index(same_year_twice) == pytest.approx(
            global_equity_index(scores[1:2]), rel=1e-15
        )
        one_more = np.vstack([scores, scores[1]])
        assert global_equity_index(one_more) == pytest.approx(
            ge * 3 / 4 + global_equity_index(scores[1:2]) / 4, rel=1e-12
        )

    def test_permutation_invariance(self, rng):
        scores = rng.uniform(0.5, 5.0, (3, 6))
        perm = rng.permutation(6)
        assert global_equity_index(scores[:, perm]) == pytest.approx(
            global_equity_index(scores), abs=1e-13
        )

    def test_nonnegative(self, rng):
        for _ in range(50):
            scores = rng.uniform(0.1, 9.0, (2, 5))
            assert global_equity_index(scores) >= 0.0

    def test_singularity_names_country_and_year(self):
        with pytest.raises(ValidationError) as err:
            global_equity_index([[1.0, 0.0, 0.0]], countries=["a", "b", "c"], years=[2020])
        assert str(err.value) == ("leave-one-out mean score is zero for country 'a' "
                                  "in year 2020")

    def test_needs_two_countries(self):
        with pytest.raises(ValidationError):
            global_equity_index([[1.0]])
