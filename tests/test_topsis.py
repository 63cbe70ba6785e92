import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equimine import topsis
from equimine.errors import ValidationError
from equimine.topsis import DecisionMatrix, IndicatorKind


def oracle_topsis(values, kinds, weights=None):
    """Independent step-by-step scalar reimplementation used as the oracle."""
    n = len(values)
    m = len(values[0])
    fwd = [[0.0] * m for _ in range(n)]
    for j in range(m):
        col = [values[i][j] for i in range(n)]
        kind = kinds[j]
        if kind[0] == "benefit":
            out = col
        elif kind[0] == "cost":
            mx = max(col)
            out = [mx - v for v in col]
        else:
            dev = [abs(v - kind[1]) for v in col]
            big = max(dev)
            out = [1.0] * n if big == 0 else [1.0 - d / big for d in dev]
        for i in range(n):
            fwd[i][j] = out[i]
    for j in range(m):
        norm = math.sqrt(sum(fwd[i][j] ** 2 for i in range(n)))
        for i in range(n):
            fwd[i][j] /= norm
    if weights is not None:
        for j in range(m):
            for i in range(n):
                fwd[i][j] *= weights[j]
    z_plus = [max(fwd[i][j] for i in range(n)) for j in range(m)]
    z_minus = [min(fwd[i][j] for i in range(n)) for j in range(m)]
    d_plus = [math.sqrt(sum((z_plus[j] - fwd[i][j]) ** 2 for j in range(m))) for i in range(n)]
    d_minus = [math.sqrt(sum((fwd[i][j] - z_minus[j]) ** 2 for j in range(m))) for i in range(n)]
    s = [0.5 if d_plus[i] + d_minus[i] == 0 else d_minus[i] / (d_plus[i] + d_minus[i])
         for i in range(n)]
    total = sum(s)
    return fwd, d_plus, d_minus, s, [v / total for v in s]


def random_matrix(rng, n=5, m=4):
    values = rng.uniform(0.5, 10.0, (n, m))
    kinds = []
    for j in range(m):
        pick = j % 3  # all three kinds present in every matrix
        if pick == 0:
            kinds.append(IndicatorKind("benefit"))
        elif pick == 1:
            kinds.append(IndicatorKind("cost"))
        else:
            kinds.append(IndicatorKind.intermediate(float(rng.uniform(1.0, 9.0))))
    return DecisionMatrix(values=values, alternative_labels=[f"A{i}" for i in range(n)],
                          indicator_kinds=kinds)


def kind_tuple(kind):
    return (kind.kind, kind.x_best)


def forward_column(column, kind):
    """topsis.forward of a one-column decision matrix, as a 1-D array."""
    matrix = DecisionMatrix(values=np.array(column, dtype=float)[:, None],
                            alternative_labels=[f"A{i}" for i in range(len(column))],
                            indicator_kinds=[kind])
    return topsis.forward(matrix)[:, 0]


class TestForwardColumn:
    def test_intermediate_example(self):
        out = forward_column([1.0, 3.0, 5.0], IndicatorKind.intermediate(3.0))
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_benefit_identity(self):
        assert np.array_equal(forward_column([2.0, 7.0], IndicatorKind("benefit")), [2.0, 7.0])

    def test_cost_flips(self):
        assert np.allclose(forward_column([2.0, 7.0], IndicatorKind("cost")), [5.0, 0.0])

    def test_degenerate_intermediate_all_ones(self):
        out = forward_column([3.0, 3.0, 3.0], IndicatorKind.intermediate(3.0))
        assert np.array_equal(out, [1.0, 1.0, 1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [IndicatorKind("cost"), IndicatorKind.intermediate(-1e308)],
                             ids=["cost", "intermediate"])
    def test_overflowing_column_is_rejected_by_label(self, kind):
        matrix = DecisionMatrix(values=np.array([[1e308, 1.0], [-1e308, 2.0]]),
                                alternative_labels=["a", "b"], indicator_kinds=[kind, kind],
                                indicator_labels=["wide", "narrow"])
        with pytest.raises(ValidationError, match="'wide' overflows"):
            topsis.forward(matrix)

    @pytest.mark.parametrize("alternatives, indicators, message", [
        (["a", "b", "a"], ["x", "y"], "alternative label 'a' is repeated"),
        (["a", "b", "c"], ["x", "x"], "indicator label 'x' is repeated"),
        (["a", "b"], ["x", "y"], "expected 3 alternative labels, got 2"),
    ], ids=["alternative", "indicator", "alternative-count"])
    def test_rejects_a_repeated_label_naming_it(self, alternatives, indicators, message):
        with pytest.raises(ValidationError, match=message):
            DecisionMatrix(values=np.ones((3, 2)), alternative_labels=alternatives,
                           indicator_kinds=[IndicatorKind("benefit")] * 2,
                           indicator_labels=indicators)

    def test_empty_column(self):
        with pytest.raises(ValidationError, match="non-empty"):
            DecisionMatrix(values=np.empty((0, 1)), alternative_labels=[],
                           indicator_kinds=[IndicatorKind("benefit")])

    def test_kind_parse(self):
        assert IndicatorKind.parse("benefit").kind == "benefit"
        assert IndicatorKind.parse("cost").kind == "cost"
        mid = IndicatorKind.parse("mid=3.5")
        assert mid.kind == "intermediate" and mid.x_best == 3.5
        with pytest.raises(ValidationError):
            IndicatorKind.parse("middle")


class TestNormalize:
    def _normalize(self, cols, labels=None):
        values = np.array(cols, dtype=float).T
        return topsis.normalize(values, labels or [f"I{j + 1}" for j in range(values.shape[1])])

    def test_three_four_five(self):
        out = self._normalize([[3.0, 4.0]])
        assert np.allclose(out[:, 0], [0.6, 0.8])

    def test_single_alternative(self):
        out = self._normalize([[5.0]])
        assert out[0, 0] == 1.0

    def test_equal_pair(self):
        out = self._normalize([[1.0, 1.0]])
        assert np.allclose(out[:, 0], [1 / math.sqrt(2)] * 2)

    def test_all_zero_column_names_indicator(self):
        with pytest.raises(ValidationError, match="^indicator 'bad': column is all zeros$"):
            self._normalize([[1.0, 2.0], [0.0, 0.0]], labels=["good", "bad"])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            self._normalize([[1.0, -1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_rejected_by_label(self):
        # 1e200 squared overflows: the norm would be inf and the column all zeros
        with pytest.raises(ValidationError, match="^indicator 'huge': norm overflows the float "
                           "range$"):
            self._normalize([[1e200, 1e200], [1.0, 2.0]], labels=["huge", "small"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_norm_that_fits_keeps_its_bits(self):
        x = np.array([[1e150, 1.0], [3e150, 2.0]])
        assert np.array_equal(topsis.normalize(x, ["a", "b"]), x / np.sqrt((x * x).sum(axis=0)))


class TestScore:
    def test_symmetric_two_by_two(self):
        scores = topsis.score(np.eye(2))
        assert np.allclose(scores.d_plus, [1.0, 1.0])
        assert np.allclose(scores.d_minus, [1.0, 1.0])
        assert np.allclose(scores.s, [0.5, 0.5])

    def test_dominating_row(self):
        # rows [2,2] and [1,1]: after normalization one dominates everywhere
        scores = topsis.score(topsis.normalize(np.array([[2.0, 2.0], [1.0, 1.0]]), ["I1", "I2"]))
        assert scores.s[0] == 1.0
        assert scores.s[1] == 0.0
        assert scores.ranking == [0, 1]

    def test_single_alternative_scores_one(self):
        scores = topsis.score(np.array([[0.3, 0.9]]))
        assert scores.s[0] == 1.0

    def test_identical_rows_all_half(self):
        scores = topsis.score(np.ones((3, 2)) * 0.5)
        assert np.allclose(scores.s, 0.5)

    def test_stable_tie_ranking(self):
        values = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.1]])
        scores = topsis.score(topsis.normalize(values, ["I1", "I2"]))
        assert scores.ranking == [0, 1, 2]

    def test_matches_oracle_on_random(self, rng):
        for _ in range(50):
            matrix = random_matrix(rng)
            ours = topsis.rank_alternatives(matrix)
            kinds = [kind_tuple(k) for k in matrix.indicator_kinds]
            _, d_plus, d_minus, s, s_norm = oracle_topsis(matrix.values.tolist(), kinds)
            assert np.allclose(ours.d_plus, d_plus, atol=1e-12)
            assert np.allclose(ours.d_minus, d_minus, atol=1e-12)
            assert np.allclose(ours.s, s, atol=1e-12)
            assert np.allclose(ours.s_normalized, s_norm, atol=1e-12)

    def test_weighted_matches_oracle(self, rng):
        weights = [0.4, 0.3, 0.2, 0.1]
        for _ in range(20):
            matrix = random_matrix(rng)
            ours = topsis.rank_alternatives(matrix, weights=weights)
            kinds = [kind_tuple(k) for k in matrix.indicator_kinds]
            _, _, _, s, _ = oracle_topsis(matrix.values.tolist(), kinds, weights=weights)
            assert np.allclose(ours.s, s, atol=1e-12)

    def test_bad_weights(self, rng):
        matrix = random_matrix(rng)
        normalized = topsis.normalize(topsis.forward(matrix), matrix.indicator_labels)
        with pytest.raises(ValidationError):
            topsis.score(normalized, weights=[1.0])
        with pytest.raises(ValidationError):
            topsis.score(normalized, weights=[1.0, 1.0, 0.0, 1.0])


class TestProperties:
    def test_scores_in_unit_interval_and_normalized(self, rng):
        for _ in range(30):
            scores = topsis.rank_alternatives(random_matrix(rng))
            assert np.all(scores.s >= 0) and np.all(scores.s <= 1)
            assert abs(scores.s_normalized.sum() - 1.0) < 1e-9

    def test_monotonic_dominance(self, rng):
        for _ in range(30):
            matrix = random_matrix(rng)
            fwd = topsis.forward(matrix)
            scores = topsis.rank_alternatives(matrix)
            n = fwd.shape[0]
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    if np.all(fwd[a] >= fwd[b]) and np.any(fwd[a] > fwd[b]):
                        assert scores.s[a] >= scores.s[b] - 1e-12

    def test_duplicating_row_in_scored_matrix_keeps_original_scores(self, rng):
        # At the scoring step a duplicate row adds no new column extremes, so
        # every original alternative keeps its exact score and order.
        matrix = random_matrix(rng, n=5)
        normalized = topsis.normalize(topsis.forward(matrix), matrix.indicator_labels)
        base = topsis.score(normalized)
        extended = topsis.score(np.vstack([normalized, normalized[2]]))
        assert np.array_equal(extended.s[:5], base.s)
        assert extended.s[5] == base.s[2]

    def test_duplication_before_normalization_can_reorder(self):
        # Known rank-reversal: re-normalizing after a duplicate row rescales
        # each column differently. Pin one concrete case so the behavior is
        # documented rather than accidental.
        values = np.array([
            [3.78758367, 9.50717858, 5.94666082, 3.73064664],
            [3.07948389, 9.54437516, 4.72254299, 9.81375013],
            [5.39746536, 5.45107823, 9.01713498, 7.55629047],
            [6.01620221, 4.55317029, 8.84278466, 4.41063842],
            [9.26621597, 1.15279585, 4.58497019, 5.43539079],
        ])
        kinds = [IndicatorKind("benefit"), IndicatorKind("cost"),
                 IndicatorKind.intermediate(8.607505564654797), IndicatorKind("benefit")]
        mat = DecisionMatrix(values=values, alternative_labels=list("abcde"),
                             indicator_kinds=kinds)
        dup = DecisionMatrix(values=np.vstack([values, values[3]]),
                             alternative_labels=list("abcde") + ["dup"],
                             indicator_kinds=kinds)
        base = list(np.argsort(-topsis.rank_alternatives(mat).s, kind="stable"))
        after = list(np.argsort(-topsis.rank_alternatives(dup).s[:5], kind="stable"))
        assert base != after

    def test_column_scale_invariance(self, rng):
        matrix = random_matrix(rng)
        # scaling a benefit column before normalization changes nothing
        scaled_values = matrix.values.copy()
        scaled_values[:, 0] *= 7.5
        scaled = DecisionMatrix(values=scaled_values,
                                alternative_labels=matrix.alternative_labels,
                                indicator_kinds=matrix.indicator_kinds)
        assert np.allclose(topsis.rank_alternatives(matrix).s,
                           topsis.rank_alternatives(scaled).s, atol=1e-12)


KIND_TEXTS = st.sampled_from(["benefit", "cost"]) | st.floats(0.0, 100.0).map(lambda x: f"mid={x}")


def _outcome(values, kinds, weights):
    """rank_alternatives' d_plus, d_minus, s and s_normalized bytes and its ranking, or the
    message of the ValidationError it raised."""
    matrix = DecisionMatrix(values, [f"A{i}" for i in range(len(values))],
                            [IndicatorKind.parse(k) for k in kinds])
    try:
        ranked = topsis.rank_alternatives(matrix, weights=weights)
    except ValidationError as exc:
        return str(exc)
    return [getattr(ranked, f).tobytes() for f in ("d_plus", "d_minus", "s", "s_normalized")
            ] + [ranked.ranking]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_appending_a_constant_column_of_any_kind_changes_no_output(data):
    # the appended column forwards to all ones, so it adds exactly 0 to every distance. From
    # 2 to 7 columns in all, numpy sums each row's terms, and each column's squares, in the
    # same order either way; a lone column of 8 or more entries it sums pairwise. A matrix
    # rank_alternatives refuses is refused for the same column either way.
    kinds = data.draw(st.lists(KIND_TEXTS, min_size=2, max_size=6))
    rows, m = data.draw(st.integers(1, 12)), len(kinds)
    values = data.draw(arrays(np.float64, (rows, m), elements=st.floats(0.0, 100.0)))
    weights = data.draw(st.none() | arrays(np.float64, m + 1, elements=st.floats(0.01, 1.0)))
    constant, kind = data.draw(st.floats(0.0, 100.0)), data.draw(KIND_TEXTS)
    extended = np.column_stack([values, np.full(rows, constant)])
    assert (_outcome(extended, kinds + [kind], weights)
            == _outcome(values, kinds, None if weights is None else weights[:m]))
