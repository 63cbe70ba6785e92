"""Acceptance suite: one numbered test per criterion, each printing a
PASS/FAIL line (visible with -v via the test name, or -s via stdout).

Run: pytest tests/test_acceptance.py -v
"""

import json
import math
import time

import numpy as np
import pytest

from equimine import equity, mcda, mining, pipeline, sensnet, stats, topsis
from equimine.data import sample_path
from equimine.mining import MiningCurveParams, RevenueWindow

from conftest import REFERENCE_WEIGHTS, REPORT_FILES, make_consistent_matrix
from test_stats import INCONSISTENT_ROWS, load_t_table, pearson_oracle
from test_topsis import kind_tuple, oracle_topsis, random_matrix


def _report(number, description):
    print(f"criterion {number:02d}: PASS  {description}")


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    """Two full pipeline runs on the bundled dataset, for criteria 10 and 12."""
    config = pipeline.load_run_config(sample_path("config.json"))
    out_a = tmp_path_factory.mktemp("run_a")
    out_b = tmp_path_factory.mktemp("run_b")
    return pipeline.run_pipeline(config, out_a), pipeline.run_pipeline(config, out_b)


def test_c01_ci_cr_reproduction():
    start = time.perf_counter()
    report = mcda.consistency_from_lambda(7.72, 7)
    elapsed = time.perf_counter() - start
    assert report.ci == pytest.approx(0.12, abs=1e-4)
    assert report.cr == pytest.approx(0.0909, abs=1e-4)
    assert report.ri == 1.32
    assert elapsed < 1e-3
    _report(1, f"CI=0.12, CR=0.0909 reproduced in {elapsed * 1e6:.0f} us")


def test_c02_ri_table_exact():
    expected = (0.00, 0.00, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)
    assert mcda.RI_TABLE == expected
    for n, ri in enumerate(expected, start=1):
        assert mcda.consistency_from_lambda(float(n), n).ri == ri
    _report(2, "RI lookup exact for n = 1..10")


def test_c03_ahp_method_agreement():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        entries, _ = make_consistent_matrix(rng, n)
        matrix = mcda.PairwiseMatrix(entries)
        weights = [mcda.derive_weights(matrix, m).weights for m in mcda.METHODS]
        assert np.max(np.abs(weights[0] - weights[1])) < 1e-8
        assert np.max(np.abs(weights[0] - weights[2])) < 1e-8
        assert np.max(np.abs(weights[1] - weights[2])) < 1e-8
        assert mcda.consistency(matrix).ci < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"3 methods agree on 1000 consistent matrices in {elapsed:.2f} s")


def test_c04_topsis_oracle_equivalence():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for _ in range(500):
        matrix = random_matrix(rng, n=5, m=4)
        ours = topsis.rank_alternatives(matrix)
        kinds = [kind_tuple(k) for k in matrix.indicator_kinds]
        fwd, d_plus, d_minus, s, s_norm = oracle_topsis(matrix.values.tolist(), kinds)
        assert np.max(np.abs(ours.d_plus - d_plus)) < 1e-12
        assert np.max(np.abs(ours.d_minus - d_minus)) < 1e-12
        assert np.max(np.abs(ours.s - s)) < 1e-12
        assert np.max(np.abs(ours.s_normalized - s_norm)) < 1e-12
        forwarded = topsis.forward(matrix)
        for a in range(5):
            for b in range(5):
                if a != b and np.all(forwarded[a] >= forwarded[b]) \
                        and np.any(forwarded[a] > forwarded[b]):
                    assert ours.s[a] >= ours.s[b] - 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(4, f"500 matrices match the oracle and obey dominance in {elapsed:.2f} s")


def test_c05_equity_index_properties():
    from equimine.equity import global_equity_index

    assert abs(global_equity_index([[3.0, 3.0, 3.0], [4.0, 4.0, 4.0]])) < 1e-30
    assert global_equity_index([[2.0, 1.0]]) == pytest.approx(0.5625, abs=1e-12)
    rng = np.random.default_rng(505)
    for _ in range(100):
        t, n = int(rng.integers(1, 6)), int(rng.integers(2, 9))
        scores = rng.uniform(0.5, 5.0, (t, n))
        scaled = scores.copy()
        scaled[int(rng.integers(0, t))] *= rng.uniform(0.2, 8.0)
        base = global_equity_index(scores)
        assert global_equity_index(scaled) == pytest.approx(base, rel=1e-12, abs=1e-12)
    _report(5, "GE zero/hand-case/scale-invariance properties hold")


def test_c06_mining_conservation():
    rng = np.random.default_rng(606)
    for _ in range(50):
        params = MiningCurveParams(
            dof=float(rng.uniform(0.8, 12.0)),
            location=float(rng.uniform(0.0, 30.0)),
            scale=float(rng.uniform(0.5, 10.0)),
            total_value=70e12,
        )
        total = mining.income(RevenueWindow(0.0, math.inf), params)
        assert total == pytest.approx(70e12, rel=1e-6)
    params = MiningCurveParams()
    cuts = sorted(rng.uniform(0.5, 60.0, 2))
    lhs = mining.income(RevenueWindow(0.0, cuts[0]), params) \
        + mining.income(RevenueWindow(cuts[0], cuts[1]), params)
    rhs = mining.income(RevenueWindow(0.0, cuts[1]), params)
    assert lhs == pytest.approx(rhs, abs=1e-9 * params.total_value)
    _report(6, "full-horizon income = V for 50 random curves; windows additive")


def test_c07_allocation_conservation():
    from equimine.allocation import allocate

    rng = np.random.default_rng(707)
    for _ in range(200):
        n = int(rng.integers(2, 15))
        labels = [f"c{i}" for i in range(n)]
        scores = dict(zip(labels, rng.uniform(0.01, 5.0, n)))
        gammas = {c: (1.2 if rng.uniform() < 0.3 else 1.0) for c in labels}
        total = float(rng.uniform(1.0, 1e13))
        result = allocate(total, scores, gammas)
        assert sum(s.conserved_share for s in result.shares) == pytest.approx(total, rel=1e-9)
    result = allocate(110.0, {"poor": 1.0, "rich": 1.0}, {"poor": 1.2, "rich": 1.0})
    poor, rich = result.shares
    assert (poor.raw_share, rich.raw_share) == (66.0, 55.0)
    assert poor.conserved_share == pytest.approx(60.0, rel=1e-12)
    assert rich.conserved_share == pytest.approx(50.0, rel=1e-12)
    _report(7, "conserve mode sums to total over 200 instances; dual-mode case exact")


def test_c08_pearson_t_test():
    rng = np.random.default_rng(808)
    for _ in range(500):
        n = int(rng.integers(5, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert stats.pearson(x, y) == pytest.approx(
            pearson_oracle(list(x), list(y)), abs=1e-12)
    result = stats.t_test(0.78, 7)
    assert result.t_stat == pytest.approx(2.7871, abs=1e-3)
    # the statistic sometimes quoted as 19.5894 for this case is not
    # derivable from the formula and is explicitly not a target
    assert abs(result.t_stat - 19.5894) > 10
    assert stats.t_upper_critical(98, 0.25) == pytest.approx(0.677, abs=0.02)
    for n, p, printed in load_t_table():
        if (n, p) not in INCONSISTENT_ROWS:
            assert stats.t_upper_critical(n - 2, p) == pytest.approx(printed, abs=0.02)
    _report(8, "pearson oracle x500, t(0.78, 7) = 2.7871, fixture rows matched")


def test_c09_gradient_checks():
    h = 1e-5
    start = time.perf_counter()
    for seed in range(20):
        params = sensnet.NetworkParams.initialize(sensnet.TrainConfig((7, 16, 1), seed=seed))
        rng = np.random.default_rng(900 + seed)
        x = rng.uniform(-1.5, 1.5, 7)
        y = rng.uniform(0.1, 0.9, 1)
        trace = sensnet.forward(x, params)
        back = sensnet.backward(trace, y, params)

        def loss_now():
            out = sensnet.forward(x, params).activations[-1]
            return 0.5 * float(((out - y) ** 2).sum())

        for layer, w in enumerate(params.weights):
            for j in range(w.shape[0]):
                for k in range(w.shape[1]):
                    orig = w[j, k]
                    w[j, k] = orig + h
                    up = loss_now()
                    w[j, k] = orig - h
                    down = loss_now()
                    w[j, k] = orig
                    fd = (up - down) / (2 * h)
                    got = back.weight_grads[layer][j, k]
                    assert abs(fd - got) < 1e-5 * max(abs(fd), abs(got), 1e-8)
        for layer, b in enumerate(params.biases):
            for j in range(b.shape[0]):
                orig = b[j]
                b[j] = orig + h
                up = loss_now()
                b[j] = orig - h
                down = loss_now()
                b[j] = orig
                fd = (up - down) / (2 * h)
                got = back.deltas[layer][j]
                assert abs(fd - got) < 1e-5 * max(abs(fd), abs(got), 1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(9, f"backprop matches central differences on 20 seeds in {elapsed:.2f} s")


def test_c10_sensitivity_qualitative(sample_run):
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(0.0, 1.0, (40, 7))
        y = 0.3 + 0.4 * x[:, 0]
        sweep = sensnet.sensitivity_sweep(
            x, y, sensnet.TrainConfig((7, 16, 1), learning_rate=0.5, epochs=1500, seed=seed),
            equity.INDICATOR_COLUMNS,
        )
        if sweep.sensitivities[0] > sweep.sensitivities[1:].max():
            hits += 1
    assert hits == 10
    first_run, _ = sample_run
    payload = json.loads(first_run["sensitivity.json"].read_text())
    assert payload["max_output_variation"] >= 0.0
    assert payload["variation_band"] == 0.07
    assert isinstance(payload["within_band"], bool)
    band_note = "within" if payload["within_band"] else "outside"
    _report(10, f"single factor ranks first 10/10; sample sweep variation "
                f"{payload['max_output_variation']:.4f} ({band_note} the 7% band)")


def test_c11_non_reproducible_numbers_excluded():
    # Published values whose inputs are unpublished are bundled as reference
    # constants or fixtures only; no code path claims to recompute them.
    # Their functionality is covered by the property-based criteria 3..10.
    assert REFERENCE_WEIGHTS["eigenvalue"] == (
        0.1810, 0.3810, 0.0921, 0.0438, 0.1027, 0.0808, 0.1187)
    from equimine.equity import DEFAULT_SCORE_WEIGHTS
    assert DEFAULT_SCORE_WEIGHTS == (0.187, 0.387, 0.097, 0.0436, 0.086, 0.0831, 0.117)
    table = load_t_table()
    assert len(table) == 9
    _report(11, "non-reproducible published numbers carried as constants/fixtures only")


def test_c12_end_to_end_determinism(sample_run):
    run_a, run_b = sample_run
    assert set(run_a) == set(run_b)
    required = set(REPORT_FILES)
    assert required <= set(run_a)
    for name in sorted(run_a):
        assert run_a[name].read_bytes() == run_b[name].read_bytes(), name
    _report(12, f"two report runs byte-identical across {len(run_a)} artifacts")


def test_run_pipeline_writes_exactly_the_report_files(sample_run):
    # a run writes every report its stages return, topsis.csv included, in stage order
    assert tuple(sample_run[0]) == REPORT_FILES
