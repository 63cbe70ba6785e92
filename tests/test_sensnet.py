import copy
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from equimine import sensnet
from equimine.errors import EquimineError, ValidationError
from equimine.sensnet import (
    BackwardTrace,
    NetworkParams,
    TrainConfig,
    backward,
    forward,
    input_sensitivities,
    output_input_gradient,
    perturbation_sweep,
    sensitivity_sweep,
    train,
)

NAMES = [f"x{j + 1}" for j in range(7)]
CPU_INFO = Path("/proc/cpuinfo")
CPU_HAS_AVX2 = CPU_INFO.exists() and "avx2" in CPU_INFO.read_text()


def forward_oracle(x, params):
    """Independent loop-based forward pass."""
    a = list(map(float, x))
    for w, b in zip(params.weights, params.biases):
        z = []
        for j in range(w.shape[0]):
            acc = float(b[j])
            for k in range(w.shape[1]):
                acc += float(w[j, k]) * a[k]
            z.append(acc)
        a = [1.0 / (1.0 + np.exp(-v)) for v in z]
    return np.array(a)


def loss_of(params, x, y):
    out = forward(x, params).activations[-1]
    return 0.5 * float(((out - y) ** 2).sum())


class TestForward:
    def test_zero_params_give_half_everywhere(self):
        params = NetworkParams(weights=[np.zeros((4, 3)), np.zeros((2, 4))],
                               biases=[np.zeros(4), np.zeros(2)])
        trace = forward(np.array([0.3, -1.0, 2.0]), params)
        for a in trace.activations[1:]:
            assert np.allclose(a, 0.5)

    def test_saturation_with_large_bias(self):
        params = NetworkParams(weights=[np.zeros((1, 1))], biases=[np.array([20.0])])
        trace = forward(np.array([0.7]), params)
        assert trace.activations[-1][0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_oracle_on_random(self, rng):
        for seed in range(5):
            params = NetworkParams.initialize(TrainConfig((7, 16, 1), seed=seed))
            x = rng.uniform(-2, 2, 7)
            trace = forward(x, params)
            assert np.allclose(trace.activations[-1], forward_oracle(x, params), atol=1e-12)

    def test_trace_invariant(self, rng):
        params = NetworkParams.initialize(TrainConfig((4, 5, 3), seed=1))
        trace = forward(rng.uniform(-1, 1, 4), params)
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = w @ trace.activations[l] + b
            assert np.allclose(trace.activations[l + 1], sensnet.sigmoid(z, np.empty_like(z)))

    def test_shape_validation(self):
        params = NetworkParams.initialize(TrainConfig((4, 2), seed=0))
        with pytest.raises(ValidationError):
            forward(np.zeros(3), params)

    @pytest.mark.parametrize("sizes", [(7, 16.9, 1), (7, True, 1), (7.5, 16, 1), (7, "16", 1)])
    def test_non_integer_layer_width_rejected(self, sizes):
        with pytest.raises(ValidationError, match="layer width"):
            TrainConfig(sizes)

    @pytest.mark.parametrize("field, value", [("epochs", 2.5), ("epochs", True), ("seed", 1.5),
                                              ("learning_rate", "0.1"), ("learning_rate", True),
                                              ("layer_sizes", 7), ("layer_sizes", None)])
    def test_non_integer_count_or_non_real_rate_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an? (integer|real number)"):
            TrainConfig(**{field: value})

    def test_integral_counts_and_numpy_rate_accepted(self):
        config = TrainConfig(epochs=12.0, seed=np.int64(3), learning_rate=np.float32(0.5))
        assert (config.epochs, config.seed, config.learning_rate) == (12, 3, 0.5)
        assert [type(v) for v in (config.epochs, config.seed, config.learning_rate)] == [
            int, int, float]

    def test_integral_layer_widths_accepted(self):
        config = TrainConfig((7, np.int64(16), 1.0))
        assert config.layer_sizes == (7, 16, 1) and all(type(s) is int for s in config.layer_sizes)

    def test_deterministic_initialization(self):
        a = NetworkParams.initialize(TrainConfig((7, 16, 1), seed=9))
        b = NetworkParams.initialize(TrainConfig((7, 16, 1), seed=9))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert all(np.all(np.abs(w) <= 0.5) for w in a.weights)


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        params = NetworkParams.initialize(TrainConfig((3, 4, 1), seed=0))
        trace = forward(np.array([0.1, 0.2, 0.3]), params)
        bt = backward(trace, trace.activations[-1], params)
        assert bt.loss == 0.0
        for g in bt.weight_grads:
            assert np.all(g == 0.0)

    def test_one_one_network_hand_case(self):
        # a = 0.5, y = 0, z = 0: delta = (0.5 - 0) * 0.25 = 0.125
        params = NetworkParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
        trace = forward(np.array([0.0]), params)
        bt = backward(trace, np.array([0.0]), params)
        assert bt.deltas[-1][0] == pytest.approx(0.125, abs=1e-15)

    def test_gradients_match_finite_differences(self, rng):
        h = 1e-5
        for seed in range(3):
            params = NetworkParams.initialize(TrainConfig((5, 8, 1), seed=seed))
            x = rng.uniform(-1, 1, 5)
            y = rng.uniform(0.2, 0.8, 1)
            bt = backward(forward(x, params), y, params)
            for l, w in enumerate(params.weights):
                for j in range(w.shape[0]):
                    for k in range(w.shape[1]):
                        orig = w[j, k]
                        w[j, k] = orig + h
                        up = loss_of(params, x, y)
                        w[j, k] = orig - h
                        down = loss_of(params, x, y)
                        w[j, k] = orig
                        fd = (up - down) / (2 * h)
                        got = bt.weight_grads[l][j, k]
                        assert abs(fd - got) <= 1e-5 * max(abs(fd), abs(got), 1e-8)

    def test_bias_gradients_are_deltas(self, rng):
        h = 1e-5
        params = NetworkParams.initialize(TrainConfig((4, 6, 1), seed=2))
        x = rng.uniform(-1, 1, 4)
        y = np.array([0.3])
        bt = backward(forward(x, params), y, params)
        for l, b in enumerate(params.biases):
            for j in range(b.shape[0]):
                orig = b[j]
                b[j] = orig + h
                up = loss_of(params, x, y)
                b[j] = orig - h
                down = loss_of(params, x, y)
                b[j] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - bt.deltas[l][j]) <= 1e-5 * max(abs(fd), 1e-8)

    def test_delta_linearity(self, rng):
        # scaling the output-layer error seed by c scales every delta and
        # gradient by c; realized by moving the target to c * (a - y)
        params = NetworkParams.initialize(TrainConfig((6, 10, 1), seed=4))
        x = rng.uniform(-1, 1, 6)
        y = np.array([0.25])
        trace = forward(x, params)
        base = backward(trace, y, params)
        c = 3.75
        out = trace.activations[-1]
        scaled_target = out - c * (out - y)
        scaled = backward(trace, scaled_target, params)
        for d1, d2 in zip(base.deltas, scaled.deltas):
            assert np.allclose(d2, c * d1, rtol=1e-12, atol=1e-15)
        for g1, g2 in zip(base.weight_grads, scaled.weight_grads):
            assert np.allclose(g2, c * g1, rtol=1e-12, atol=1e-15)

    def test_backward_leaves_the_callers_trace_unchanged(self, rng):
        # _backward overwrites each hidden activation once it has used it; the public
        # backward must hand it copies, for a batch and for one vector alike
        for sizes in [(7, 16, 1), (5, 8, 6, 1)]:
            params = NetworkParams.initialize(TrainConfig(sizes, seed=2))
            for x in (rng.uniform(-1, 1, (9, sizes[0])), rng.uniform(-1, 1, sizes[0])):
                trace = forward(x, params)
                kept = copy.deepcopy(trace)
                backward(trace, np.full(trace.activations[-1].shape, 0.5), params)
                for got, want in zip(trace.activations, kept.activations):
                    assert np.array_equal(got, want)

    def test_target_shape_validated(self):
        params = NetworkParams.initialize(TrainConfig((3, 2), seed=0))
        trace = forward(np.zeros(3), params)
        with pytest.raises(ValidationError):
            backward(trace, np.zeros(2), NetworkParams.initialize(TrainConfig((3, 2, 2), seed=0)))
        with pytest.raises(ValidationError):
            backward(trace, np.zeros(5), params)


class TestOutputInputGradient:
    def test_matches_finite_differences(self, rng):
        h = 1e-6
        params = NetworkParams.initialize(TrainConfig((5, 9, 1), seed=7))
        x = rng.uniform(-1, 1, 5)
        grad = output_input_gradient(forward(x, params), params)
        for j in range(5):
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            fd = (forward(xp, params).activations[-1][0]
                  - forward(xm, params).activations[-1][0]) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_needs_scalar_output(self):
        params = NetworkParams.initialize(TrainConfig((3, 4, 2), seed=0))
        with pytest.raises(ValidationError):
            output_input_gradient(forward(np.zeros(3), params), params)


class TestTrain:
    def test_loss_decreases_on_learnable_data(self, rng):
        x = rng.uniform(0, 1, (20, 4))
        y = 0.3 + 0.4 * x[:, 0]
        params, losses = train(x, y, TrainConfig((4, 8, 1), learning_rate=0.5, epochs=6000))
        assert losses[-1] < losses[0] * 0.1

    def test_forward_determinism(self, rng):
        x = rng.uniform(0, 1, (15, 3))
        y = x.mean(axis=1) * 0.5 + 0.2
        config = TrainConfig((3, 5, 1), epochs=200, seed=11)
        p1, l1 = train(x, y, config)
        p2, l2 = train(x, y, config)
        assert l1 == l2
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)

    def test_divergence_raises_with_epoch(self, rng):
        # an absurd step size overflows the weights; the nan shows up in the
        # next epoch's loss
        x = rng.uniform(0.5, 1.0, (10, 3))
        y = np.full(10, 1e6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EquimineError) as err:
                train(x, y, TrainConfig((3, 4, 1), learning_rate=1e306, epochs=5, seed=0))
        assert str(err.value) == "training loss diverged (epoch 1)"

    def test_shape_mismatch(self, rng):
        # a wrong width, a target row count that differs, one vector, a wrong target width
        for x_shape, y_shape in [((10, 3), (10,)), ((10, 4), (12,)), ((4,), (1,)),
                                 ((10, 4), (10, 2))]:
            with pytest.raises(ValidationError, match="layer_sizes must fit the data"):
                train(rng.uniform(size=x_shape), np.zeros(y_shape),
                      TrainConfig((4, 2, 1), epochs=1))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(seed=-1)


class TestSensitivitySweep:
    def test_single_factor_data_ranks_that_factor_first(self):
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            x = rng.uniform(0, 1, (40, 7))
            y = 0.3 + 0.4 * x[:, 0]
            config = TrainConfig((7, 16, 1), learning_rate=0.5, epochs=1500, seed=seed)
            sweep = sensitivity_sweep(x, y, config, NAMES)
            assert sweep.sensitivities[0] > sweep.sensitivities[1:].max()

    def test_needs_ten_samples(self, rng):
        with pytest.raises(ValidationError):
            sensitivity_sweep(rng.uniform(size=(5, 7)), np.zeros(5), TrainConfig(), NAMES)

    def test_standardize_handles_constant_column(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out = sensnet.standardize_columns(x, ["rising", "constant"])
        assert np.array_equal(out[:, 0], (x[:, 0] - 2.0) / x[:, 0].std())
        assert np.all(out[:, 1] == 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", [[1e308, 1.0, 2.0], [1.5e308, 1.5e308, 1.0]],
                             ids=["std-overflows", "mean-overflows"])
    def test_standardize_rejects_an_overflowing_column_by_label(self, column):
        x = np.column_stack([[1.0, 2.0, 3.0], column])
        with pytest.raises(ValidationError, match="'ei' overflows"):
            sensnet.standardize_columns(x, ["hr", "ei"])

    @pytest.mark.filterwarnings("error")  # forward silences the exp overflow
    def test_saturated_network_is_training_error(self, rng):
        params = NetworkParams(weights=[np.zeros((4, 3)), np.zeros((1, 4))],
                               biases=[np.zeros(4), np.array([-1000.0])])
        with pytest.raises(EquimineError, match="output is saturated at 0"):
            perturbation_sweep(params, rng.uniform(0, 1, (12, 3)))

    # a batch that is not 2-D, has the wrong width or has no rows is refused by name,
    # with no RuntimeWarning or NaN output
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("run, shape", [
        pytest.param(input_sensitivities, (0, 7), id="input-grads-no-rows"),
        pytest.param(input_sensitivities, (7,), id="input-grads-1d"),
        pytest.param(input_sensitivities, (2, 1, 7), id="input-grads-3d"),
        pytest.param(lambda x, p: perturbation_sweep(p, x), (0, 7), id="sweep-no-rows"),
        pytest.param(lambda x, p: train(x, np.empty(0), TrainConfig(epochs=3)), (0, 7),
                     id="train-no-rows"),
    ])
    def test_malformed_batch_is_validation_error_naming_its_shape(self, run, shape):
        params = NetworkParams.initialize(TrainConfig((7, 16, 1), seed=0))
        with pytest.raises(ValidationError, match=re.escape(f"got {shape}")):
            run(np.zeros(shape), params)

    def test_perturbation_rows_cover_every_weight(self, rng):
        x = rng.uniform(0, 1, (12, 3))
        y = 0.4 + 0.2 * x[:, 1]
        sweep = sensitivity_sweep(x, y, TrainConfig((3, 4, 1), epochs=50), ["a", "b", "c"])
        n_weights = 3 * 4 + 4 * 1
        assert len({row[0] for row in sweep.perturbation_rows}) == n_weights
        assert len(sweep.perturbation_rows) == n_weights * sensnet.SWEEP_POINTS
        assert sweep.max_variation >= 0


class TestOneNetworkPath:
    SHAPES = [(7, 16, 1), (3, 4, 2), (5, 8, 6, 1)]

    def test_one_vector_is_bit_equal_to_column_form(self, rng):
        # input_sensitivities gives each row a vector's product, so its bytes rely on
        # the row form z = a @ W.T + b matching the column form W @ a + b
        for sizes in self.SHAPES:
            for seed in range(5):
                params = NetworkParams.initialize(TrainConfig(sizes, seed=seed))
                x = rng.uniform(-2, 2, sizes[0])
                trace = forward(x, params)
                a = x
                for l, (w, b) in enumerate(zip(params.weights, params.biases)):
                    z = w @ a + b
                    a = sensnet.sigmoid(z, np.empty_like(z))
                    assert np.array_equal(trace.activations[l + 1], a)
                batch = rng.uniform(-2, 2, (9, sizes[0]))
                batch_trace = forward(batch, params)
                for i, row in enumerate(batch):
                    for got, want in zip(batch_trace.activations, forward(row, params).activations):
                        assert np.allclose(got[i], want, rtol=1e-12, atol=0)
                if sizes[-1] == 1:
                    per_sample = [output_input_gradient(forward(row, params), params)
                                  for row in batch]
                    assert np.allclose(output_input_gradient(batch_trace, params), per_sample,
                                       rtol=1e-12, atol=1e-15)

    # a batch of two rows or more into fewer than 16 inputs multiplies by a contiguous
    # copy of W.T; one row, and a layer of 16 inputs or more, keep the view. Either way
    # z has the bits of the plain expression. With the sigmoid made the identity, each
    # layer's z stays in its activation buffer, where forward writes it first
    @pytest.mark.parametrize("sizes", [(7, 16, 1), (7, 16, 4, 1), (3, 20, 9, 2)],
                             ids=["7-16-1", "7-16-4-1", "3-20-9-2"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_small_batches_are_bit_equal_to_the_plain_product(self, rng, monkeypatch, sizes,
                                                              rows):
        params = NetworkParams.initialize(TrainConfig(sizes, seed=5))
        monkeypatch.setattr(sensnet, "sigmoid", lambda x, out: out)
        trace = forward(rng.uniform(-2, 2, (rows, sizes[0])), params)
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            assert np.array_equal(trace.activations[l + 1], trace.activations[l] @ w.T + b)

    # input_sensitivities takes all rows in one pass stacked as one-row batches, where
    # matmul runs each row's vector product. A plain 2-D batch pass moves bits: batch
    # and vector products may sum in another order, as at the 32 inputs of (7, 32, 3, 1)
    @pytest.mark.parametrize("sizes", [(7, 16, 1), (7, 16, 4, 1), (7, 32, 3, 1), (7, 1)],
                             ids=["7-16-1", "7-16-4-1", "7-32-3-1", "7-1"])
    @pytest.mark.parametrize("rows", [1, 2, 40, 1100])
    def test_input_sensitivities_are_bit_equal_to_a_per_row_loop(self, rng, sizes, rows):
        params = NetworkParams.initialize(TrainConfig(sizes, seed=6))
        x = rng.uniform(-2, 2, (rows, sizes[0]))
        per_row = [output_input_gradient(forward(row, params), params) for row in x]
        assert np.array_equal(input_sensitivities(x, params), np.abs(per_row).mean(axis=0))

    def test_batch_backward_is_mean_of_per_sample(self, rng):
        for sizes in self.SHAPES:
            params = NetworkParams.initialize(TrainConfig(sizes, seed=3))
            x = rng.uniform(-1, 1, (12, sizes[0]))
            y = rng.uniform(0.1, 0.9, (12, sizes[-1]))
            batch = backward(forward(x, params), y, params)
            singles = [backward(forward(xi, params), yi, params) for xi, yi in zip(x, y)]
            assert batch.loss == pytest.approx(np.mean([s.loss for s in singles]),
                                               rel=1e-12, abs=1e-12)
            for l in range(len(sizes) - 1):
                for got, parts in ((batch.weight_grads[l], [s.weight_grads[l] for s in singles]),
                                   (batch.deltas[l], [s.deltas[l] for s in singles])):
                    assert got.shape == parts[0].shape
                    assert np.allclose(got, np.mean(parts, axis=0), rtol=1e-12, atol=1e-12)


def full_pass_sweep(params, x, span=0.1, points=11):
    """The weight sweep as a public `forward` pass over the whole network at
    every grid point. Kept as the oracle for `perturbation_sweep`."""
    baseline = float(forward(x, params).activations[-1].mean())
    rows, variations = [], {}
    for l, w in enumerate(params.weights):
        for (j, k), center in np.ndenumerate(w):
            half = abs(center) * span if center != 0 else span
            outputs = []
            for value in np.linspace(center - half, center + half, points):
                w[j, k] = value
                outputs.append(float(forward(x, params).activations[-1].mean()))
                rows.append((f"w{l + 1}[{j},{k}]", float(value), outputs[-1]))
            w[j, k] = center
            variations[f"w{l + 1}[{j},{k}]"] = (max(outputs) - min(outputs)) / abs(baseline)
    return rows, variations


def allocating_train(x, y, config):
    """The training loop as it was before out= reuse: every epoch allocates a
    fresh trace and fresh gradients. Kept as the oracle for `train`."""
    params = NetworkParams.initialize(config)
    losses = []
    for _ in range(config.epochs):
        zs, acts = [], [x]
        for w, b in zip(params.weights, params.biases):
            zs.append(acts[-1] @ w.T + b)
            with np.errstate(over="ignore"):
                acts.append(1.0 / (1.0 + np.exp(-zs[-1])))
        out = acts[-1]
        err = out - y
        delta = err * (out * (1.0 - out))
        deltas, weight_grads = [None] * len(zs), [None] * len(zs)
        for l in range(len(zs) - 1, -1, -1):
            deltas[l] = delta.mean(axis=0)
            weight_grads[l] = delta.T @ acts[l] / x.shape[0]
            back = delta @ params.weights[l]
            if l > 0:
                delta = back * (acts[l] * (1.0 - acts[l]))
        losses.append(0.5 * float((err * err).sum()) / x.shape[0])
        for l in range(len(zs)):
            params.weights[l] = params.weights[l] - config.learning_rate * weight_grads[l]
            params.biases[l] = params.biases[l] - config.learning_rate * deltas[l]
    return params, losses


class TestOutReuse:
    # (7, 1) has no hidden layer; (7, 4, 1, 3, 1) backpropagates through a one-row W
    # inside the network, where backward takes delta @ W through np.dot. At 3,000
    # rows every delta wider than one column, whose column sums einsum takes, is
    # past numpy's 8,192-element iterator buffer. From 1,024 rows (two tiles) a layer
    # of two units or more adds its bias a tile at a time: 1,023 rows stay below,
    # 1,024 fill two tiles exactly and 1,537 leave a remainder. (7, 16, 4, 1) has a
    # layer of 16 inputs, whose product keeps the W.T view
    @pytest.mark.parametrize("sizes, rows, epochs", [
        pytest.param((7, 16, 1), 500, 300, id="7-16-1"),
        pytest.param((7, 1), 500, 300, id="7-1"),
        pytest.param((7, 4, 1, 3, 1), 500, 300, id="7-4-1-3-1"),
        pytest.param((7, 16, 1), 3000, 40, id="7-16-1-3000-rows"),
        pytest.param((7, 1), 3000, 40, id="7-1-3000-rows"),
        pytest.param((7, 4, 1, 3, 1), 3000, 40, id="7-4-1-3-1-3000-rows"),
        pytest.param((7, 16, 1), 5000, 20, id="7-16-1-5000-rows"),
        pytest.param((7, 16, 1), 1023, 30, id="7-16-1-1023-rows"),
        pytest.param((7, 16, 1), 1024, 30, id="7-16-1-1024-rows"),
        pytest.param((7, 16, 1), 1537, 30, id="7-16-1-1537-rows"),
        pytest.param((7, 16, 4, 1), 1537, 30, id="7-16-4-1-1537-rows"),
    ])
    def test_train_is_bit_equal_to_allocating_loop(self, sizes, rows, epochs):
        rng = np.random.default_rng(77)
        x = rng.uniform(-1, 1, (rows, 7))
        y = rng.uniform(0.1, 0.9, (rows, 1))
        config = TrainConfig(sizes, learning_rate=0.5, epochs=epochs, seed=4)
        params, losses = train(x, y, config)
        want_params, want_losses = allocating_train(x, y, config)
        assert losses == want_losses
        for got, want in zip(params.weights + params.biases,
                             want_params.weights + want_params.biases):
            assert np.array_equal(got, want)

    # the sweep takes all grid points of a unit from one product where _forward takes a
    # contiguous product into several units, and a stack of copies of W elsewhere; its
    # outputs must still carry the bits of full passes. (7, 4, 2) writes the grid into
    # the output layer. A one-unit layer, a layer of 16 inputs or more, as in
    # (7, 32, 3, 1) and (20, 8, 1), and a one-row batch take the weight stack; in
    # (7, 1) on one row the first layer is the output layer. Up to STACK_ROWS (1,024)
    # rows every weight's grid points run as one stack, above it as stacks of one: 40
    # rows is the sample's shape, and at 40 rows (7, 4, 2) stacks the output layer
    # itself, so no later layer runs; 1,024 and 1,025 rows sit on either side of the rule
    @pytest.mark.parametrize("sizes, rows", [
        pytest.param((7, 16, 1), 1200, id="7-16-1"),
        pytest.param((7, 1), 1200, id="7-1"),
        pytest.param((7, 4, 1, 3, 1), 1200, id="7-4-1-3-1"),
        pytest.param((7, 4, 2), 1200, id="7-4-2"),
        pytest.param((7, 32, 3, 1), 300, id="7-32-3-1"),
        pytest.param((7, 16, 1), 1, id="7-16-1-one-row"),
        pytest.param((7, 4, 2), 1, id="7-4-2-one-row"),
        pytest.param((7, 16, 1), 40, id="7-16-1-40-rows"),
        pytest.param((7, 4, 2), 40, id="7-4-2-40-rows"),
        pytest.param((7, 4, 1, 3, 1), 500, id="7-4-1-3-1-500-rows"),
        pytest.param((7, 16, 1), 1024, id="7-16-1-1024-rows"),
        pytest.param((7, 16, 1), 1025, id="7-16-1-1025-rows"),
        pytest.param((20, 8, 1), 60, id="20-8-1-60-rows"),
        pytest.param((7, 1), 1, id="7-1-one-row"),
    ])
    def test_sweep_is_bit_equal_to_full_forward_passes(self, sizes, rows):
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, (rows, sizes[0]))
        y = rng.uniform(0.1, 0.9, (rows, sizes[-1]))
        params, _ = train(x, y, TrainConfig(sizes, learning_rate=0.5, epochs=20))
        params.weights[-1][0, 0] = 0.0  # a zero weight sweeps the absolute band
        trained = copy.deepcopy(params)
        rows, variations = perturbation_sweep(params, x)
        assert (rows, variations) == full_pass_sweep(copy.deepcopy(trained), x)
        for got, want in zip(params.weights + params.biases, trained.weights + trained.biases):
            assert np.array_equal(got, want)

    # the sweep moves copies of the weights, never the trained arrays themselves
    @pytest.mark.parametrize("sizes, rows", [
        pytest.param((7, 16, 1), 40, id="7-16-1-40-rows"),
        pytest.param((7, 16, 1), 1, id="7-16-1-one-row"),
        pytest.param((7, 4, 1, 3, 1), 1025, id="7-4-1-3-1-1025-rows"),
    ])
    def test_sweep_only_reads_the_trained_parameters(self, sizes, rows):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (rows, sizes[0]))
        params = NetworkParams.initialize(TrainConfig(sizes, seed=2))
        want = full_pass_sweep(copy.deepcopy(params), x)
        for a in params.weights + params.biases:
            a.setflags(write=False)
        assert perturbation_sweep(params, x) == want

    # one baseline pass; a grid weight takes one pass for its unit's columns and one for
    # the later layers, any other weight one pass from its layer, as one stack of points
    def test_sweep_runs_one_stacked_pass_per_weight(self, monkeypatch):
        calls, forward_pass = [], sensnet._forward

        def counted(*args):  # records the layer each pass starts from
            calls.append(args[2] if len(args) > 2 else 0)
            return forward_pass(*args)

        monkeypatch.setattr(sensnet, "_forward", counted)
        params = NetworkParams.initialize(TrainConfig((7, 16, 1), seed=1))
        perturbation_sweep(params, np.random.default_rng(8).uniform(-2, 2, (40, 7)))
        assert len(calls) == 1 + 2 * 16 * 7 + 16 == 241
        # from layer 0: the baseline and the grid's columns; from layer 1: the rest
        assert calls.count(0) == 1 + 16 * 7 and calls.count(1) == 16 * 7 + 16

    # STACK_ROWS is a rule of speed and memory, not of bits: a stack of all grid points
    # matches full passes at 5,000 rows too, where the unstacked trace adds biases by tiles
    @pytest.mark.parametrize("sizes", [(7, 16, 1), (7, 4, 1, 3, 1)], ids=["7-16-1", "7-4-1-3-1"])
    def test_full_stack_above_stack_rows_is_bit_equal(self, sizes, monkeypatch):
        monkeypatch.setattr(sensnet, "STACK_ROWS", 5000)
        self.test_sweep_is_bit_equal_to_full_forward_passes(sizes, 5000)

    # BLAS gemm and numpy's exp give other last bits on other kernels (README's CLI
    # section). The stacked sweep must still match full passes there: rerun the oracle
    # test with the kernels an AVX2-only CPU gets, on a CPU that can run them
    @pytest.mark.skipif(not CPU_HAS_AVX2, reason="the CPU has no AVX2")
    def test_sweep_is_bit_equal_to_full_forward_passes_on_avx2_kernels(self):
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        oracle = "::".join([str(Path(__file__).resolve()), "TestOutReuse",
                            "test_sweep_is_bit_equal_to_full_forward_passes"])
        result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                 oracle], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr
        assert re.search(r"\b\d+ passed", result.stdout) and "skipped" not in result.stdout

    def test_train_allocates_nothing_per_epoch(self):
        rng = np.random.default_rng(3)
        samples = 2000
        x = rng.uniform(-1, 1, (samples, 7))
        y = rng.uniform(0.1, 0.9, (samples, 1))
        sizes = (7, 16, 1)

        def peak_rise(run):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        # two (samples, width) arrays per layer, the activation and the delta,
        # plus the output error
        buffers = sum(2 * samples * n * 8 for n in sizes[1:]) + samples * sizes[-1] * 8
        peaks = {epochs: peak_rise(lambda: train(x, y, TrainConfig(sizes, epochs=epochs)))
                 for epochs in (5, 50)}
        # more epochs hold no more memory, and training holds no more than those
        # buffers: the slack, half a hidden-width array, covers the parameters and
        # the 8,192-double bias tile that the trace allocates once for the hidden add
        assert peaks[50] - peaks[5] < samples * 16 * 8
        assert peaks[5] - buffers < samples * 8 * 8
