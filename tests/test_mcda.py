import numpy as np
import pytest

from equimine import mcda
from equimine.errors import ValidationError

from conftest import REFERENCE_WEIGHTS, make_consistent_matrix


class TestPairwiseMatrix:
    def test_symmetrizes_rounded_reciprocals(self):
        # 0.3333333333 is 1/3 rounded; close enough to validate, then exact
        a = np.array([[1.0, 3.0], [0.3333333333, 1.0]])
        m = mcda.PairwiseMatrix(a)
        assert m.entries[1, 0] == 1.0 / 3.0

    def test_rejects_non_reciprocal(self):
        a = np.array([[1.0, 2.0], [0.6, 1.0]])
        with pytest.raises(ValidationError, match="reciprocal"):
            mcda.PairwiseMatrix(a)

    def test_rejects_nonpositive(self):
        a = np.array([[1.0, 0.0], [np.inf, 1.0]])
        with pytest.raises(ValidationError):
            mcda.PairwiseMatrix(a)

    def test_rejects_bad_diagonal(self):
        a = np.array([[1.0, 2.0], [0.5, 1.0000001]])
        with pytest.raises(ValidationError, match="diagonal"):
            mcda.PairwiseMatrix(a)

    def test_rejects_single_criterion(self):
        with pytest.raises(ValidationError):
            mcda.PairwiseMatrix(np.array([[1.0]]))

    def test_default_labels(self):
        m = mcda.PairwiseMatrix(np.ones((3, 3)))
        assert m.labels == ["C1", "C2", "C3"]

    def test_rejects_a_repeated_label_naming_it(self):
        with pytest.raises(ValidationError, match="criterion label 'a' is repeated"):
            mcda.PairwiseMatrix(np.ones((3, 3)), labels=["a", "b", "a"])
        with pytest.raises(ValidationError, match="expected 3 criterion labels, got 2"):
            mcda.PairwiseMatrix(np.ones((3, 3)), labels=["a", "b"])


class TestDeriveWeights:
    def test_all_ones_matrix_gives_uniform(self):
        m = mcda.PairwiseMatrix(np.ones((3, 3)))
        for method in mcda.METHODS:
            w = mcda.derive_weights(m, method).weights
            assert np.allclose(w, 1 / 3, atol=1e-15)

    def test_consistent_3x3_exact_weights(self, consistent_3x3):
        m = mcda.PairwiseMatrix(consistent_3x3)
        expected = np.array([4 / 7, 2 / 7, 1 / 7])
        for method in mcda.METHODS:
            w = mcda.derive_weights(m, method).weights
            assert np.allclose(w, expected, atol=1e-12), method

    def test_methods_agree_on_random_consistent(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 10))
            a, expected = make_consistent_matrix(rng, n)
            m = mcda.PairwiseMatrix(a)
            results = [mcda.derive_weights(m, method).weights for method in mcda.METHODS]
            for w in results:
                assert np.allclose(w, expected, atol=1e-10)
            assert np.allclose(results[0], results[2], atol=1e-8)

    def test_weights_sum_to_one(self, rng):
        a, _ = make_consistent_matrix(rng, 5)
        a[0, 1] *= 1.8  # push it off consistency
        a[1, 0] = 1 / a[0, 1]
        m = mcda.PairwiseMatrix(a)
        for method in mcda.METHODS:
            w = mcda.derive_weights(m, method).weights
            assert abs(w.sum() - 1.0) < 1e-9

    def test_permutation_equivariance(self, rng):
        a, _ = make_consistent_matrix(rng, 4)
        a[0, 2] *= 1.5
        a[2, 0] = 1 / a[0, 2]
        perm = rng.permutation(4)
        m = mcda.PairwiseMatrix(a.copy())
        mp = mcda.PairwiseMatrix(a[np.ix_(perm, perm)])
        for method in mcda.METHODS:
            w = mcda.derive_weights(m, method).weights
            wp = mcda.derive_weights(mp, method).weights
            assert np.allclose(wp, w[perm], atol=1e-12)

    def test_unknown_method(self):
        m = mcda.PairwiseMatrix(np.ones((2, 2)))
        with pytest.raises(ValidationError, match="method"):
            mcda.derive_weights(m, "entropy")


class TestConsistency:
    def test_reference_ci_cr(self):
        # lambda 7.72 with 7 criteria: CI 0.12, CR 0.0909, passes
        report = mcda.consistency_from_lambda(7.72, 7)
        assert report.ci == pytest.approx(0.12, abs=1e-12)
        assert report.ri == 1.32
        assert report.cr == pytest.approx(0.0909, abs=1e-4)
        assert report.passes

    def test_ri_table_values(self):
        expected = (0.00, 0.00, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)
        assert mcda.RI_TABLE == expected
        for n, ri in enumerate(expected, start=1):
            assert mcda.consistency_from_lambda(float(n), n).ri == ri

    def test_consistent_matrix_has_zero_ci(self, consistent_3x3):
        report = mcda.consistency(mcda.PairwiseMatrix(consistent_3x3))
        assert report.lambda_max == pytest.approx(3.0, abs=1e-12)
        assert report.ci == pytest.approx(0.0, abs=1e-12)
        assert report.cr == pytest.approx(0.0, abs=1e-12)

    def test_lambda_at_least_n(self, rng):
        for _ in range(20):
            a, _ = make_consistent_matrix(rng, 5)
            a[0, 3] *= rng.uniform(1.2, 3.0)
            a[3, 0] = 1 / a[0, 3]
            report = mcda.consistency(mcda.PairwiseMatrix(a))
            assert report.lambda_max >= 5 - 1e-7

    @pytest.mark.parametrize("n", range(2, 11))
    def test_all_ones_matrix_has_zero_cr(self, n):
        # "all criteria equal": lambda_max rounds just below n for some n
        report = mcda.consistency(mcda.PairwiseMatrix(np.ones((n, n))))
        assert report.ci == 0.0
        assert report.cr == 0.0
        assert report.passes

    def test_n2_defined_consistent(self):
        m = mcda.PairwiseMatrix(np.array([[1.0, 5.0], [0.2, 1.0]]))
        report = mcda.consistency(m)
        assert report.cr == 0.0
        assert report.passes

    def test_n_outside_table(self):
        with pytest.raises(ValidationError, match="no RI value for n = 11"):
            mcda.consistency_from_lambda(12.0, 11)

    def test_reference_weight_constants(self):
        # spot values from the published per-method table
        assert REFERENCE_WEIGHTS["eigenvalue"][0] == 0.1810
        assert REFERENCE_WEIGHTS["eigenvalue"][1] == 0.3810
        for method in mcda.METHODS:
            w = REFERENCE_WEIGHTS[method]
            assert len(w) == 7
            assert abs(sum(w) - 1.0) < 1e-3  # printed at 4 decimals
