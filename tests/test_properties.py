"""Properties the paper's computations imply, checked over generated inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equimine import allocation, equity, mcda, topsis

# Fixed example sets keep the suite deterministic and fast.
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

SAATY = [1.0 / k for k in range(9, 1, -1)] + [float(k) for k in range(1, 10)]


@st.composite
def saaty_matrices(draw):
    """Reciprocal matrix from a random Saaty-scale upper triangle."""
    n = draw(st.integers(2, len(mcda.RI_TABLE)))
    iu, ju = np.triu_indices(n, k=1)
    a = np.ones((n, n))
    a[iu, ju] = draw(st.lists(st.sampled_from(SAATY), min_size=iu.size, max_size=iu.size))
    a[ju, iu] = 1.0 / a[iu, ju]
    return a


@st.composite
def consistent_matrices(draw):
    """Exactly consistent matrix a_ij = w_i / w_j."""
    n = draw(st.integers(2, len(mcda.RI_TABLE)))
    w = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    return w[:, None] / w[None, :]


@PROPERTY
@given(st.one_of(saaty_matrices(), consistent_matrices()))
def test_ahp_cr_nonnegative_and_weights_normalized(entries):
    matrix = mcda.PairwiseMatrix(entries)
    assert mcda.consistency(matrix).cr >= 0.0
    for method in mcda.METHODS:
        w = mcda.derive_weights(matrix, method).weights
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


@PROPERTY
@given(st.data())
def test_topsis_invariant_to_benefit_and_cost_column_scale(data):
    rows = data.draw(st.integers(2, 12))
    kinds = data.draw(st.lists(st.sampled_from(["benefit", "cost"]), min_size=1, max_size=6))
    # Integer-valued entries: distinct values differ by at least 1, so column
    # differences carry no cancellation and rtol 1e-12 is meaningful.
    values = np.array(data.draw(st.lists(
        st.lists(st.integers(1, 100), min_size=len(kinds), max_size=len(kinds)),
        min_size=rows, max_size=rows)), dtype=float)
    factors = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(kinds),
                                          max_size=len(kinds))))
    indicator_kinds = [topsis.IndicatorKind.parse(k) for k in kinds]

    def s_of(v):
        return topsis.rank_alternatives(
            topsis.DecisionMatrix(v, list(range(rows)), indicator_kinds)).s

    np.testing.assert_allclose(s_of(values * factors), s_of(values), rtol=1e-12)


@PROPERTY
@given(st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1e6)), min_size=1, max_size=40),
       st.floats(0.0, 1e14), st.floats(1.0, 2.0), st.data())
def test_conserved_shares_sum_to_profit(countries, total_profit, multiplier, data):
    labels = [f"c{i}" for i in range(len(countries))]
    scores = {c: s for c, (s, _) in zip(labels, countries)}
    gdp = {c: g for c, (_, g) in zip(labels, countries)}
    policy = allocation.PovertyPolicy(data.draw(st.integers(1, len(labels))), multiplier)
    gammas = allocation.poverty_multipliers(gdp, policy)
    for mode in allocation.ALLOC_MODES:
        result = allocation.allocate(total_profit, scores, gammas, mode)
        conserved = sum(s.conserved_share for s in result.shares)
        assert conserved == pytest.approx(total_profit, rel=1e-12, abs=1e-12)


@PROPERTY
@given(st.lists(st.floats(0.01, 1e3), min_size=1, max_size=10), st.integers(2, 30))
def test_equity_index_zero_for_identical_countries(year_scores, countries):
    table = np.repeat(np.array(year_scores)[:, None], countries, axis=1)
    # the within-year mean of identical ratios can round one ulp away from them
    assert equity.global_equity_index(table) == pytest.approx(0.0, abs=1e-24)


@st.composite
def scored_panels(draw):
    """A (countries, years, 7) panel of positive indicators and 7 positive weights."""
    shape = (draw(st.integers(2, 60)), draw(st.integers(1, 8)), 7)
    values = draw(arrays(np.float64, shape, elements=st.floats(0.01, 1.0)))
    weights = draw(arrays(np.float64, 7, elements=st.floats(0.01, 1.0)))
    return values, weights


@PROPERTY
@given(scored_panels())
def test_batched_scores_and_index_match_per_record_and_c_order(panel):
    values, weights = panel
    scores = equity.development_scores(values, weights)
    per_record = [[float(weights @ v) for v in row] for row in values]  # one dot product each
    assert scores.tolist() == per_record
    assert [[equity.country_score(equity.IndicatorVector(*v), weights) for v in row]
            for row in values] == per_record
    # the pipeline hands the index the transposed (countries, years) array
    assert equity.global_equity_index(scores.T) == equity.global_equity_index(
        np.ascontiguousarray(scores.T))
