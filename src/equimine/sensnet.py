"""Small sigmoid feedforward network with hand-rolled backpropagation.

Used to quantify how sensitive the development score is to each input
indicator: train on (indicators -> score) pairs, then backpropagate to the
input layer and average absolute gradients per indicator. A weight
perturbation sweep records how much the output moves when individual weights
are displaced from their trained values.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError, ValidationError

DEFAULT_LAYER_SIZES = (7, 16, 1)
INIT_HALF_RANGE = 0.5  # weights and biases start uniform in [-0.5, 0.5]


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) elementwise, written into `out` when it is given.

    exp(-x) overflows for x below about -709 and the result saturates to 0
    cleanly; callers that expect such inputs enter np.errstate(over="ignore")
    to silence numpy's warning, as `forward` does once per pass.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


@dataclass
class LayerSpec:
    sizes: tuple = DEFAULT_LAYER_SIZES

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if len(self.sizes) < 2:
            raise ValidationError("need at least an input and an output layer")
        if any(s < 1 for s in self.sizes):
            raise ValidationError("layer widths must be >= 1")


@dataclass
class NetworkParams:
    weights: list  # layer l: array (N_l, N_{l-1})
    biases: list  # layer l: array (N_l,)
    seed: int = None

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValidationError("weights and biases must have one entry per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValidationError(f"layer {l + 1}: bias shape {b.shape} does not match {w.shape}")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValidationError(f"layer {l + 1}: input width does not match previous layer")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {l + 1}: parameters must be finite")

    @classmethod
    def initialize(cls, spec: LayerSpec, seed: int = 0):
        """Deterministic uniform init in [-0.5, 0.5] from the seed."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for n_in, n_out in zip(spec.sizes, spec.sizes[1:]):
            weights.append(rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, size=(n_out, n_in)))
            biases.append(rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, size=n_out))
        return cls(weights=weights, biases=biases, seed=seed)


@dataclass
class ForwardTrace:
    pre_activations: list  # z^1 .. z^L
    activations: list  # a^0 (the input) .. a^L


@dataclass
class BackwardTrace:
    deltas: list  # delta^1 .. delta^L, batch means (also the bias gradients)
    weight_grads: list  # batch means
    input_delta: np.ndarray  # loss gradient propagated to the input layer, per sample
    loss: float  # batch mean
    # per-sample arrays backward(out=...) writes into: delta^1 .. delta^L,
    # the loss gradients at a^0 .. a^(L-1) (the first is input_delta), and
    # the output error
    work: list = field(default_factory=list, repr=False)


def forward(x, params: NetworkParams, out: ForwardTrace = None) -> ForwardTrace:
    """Run the network on one input vector (n_in,) or a batch of rows
    (samples, n_in), recording z and a per layer.

    A trace passed as `out` from a call on input of the same shape is
    overwritten and returned, so a loop can run without allocating; a trace
    of any other shape is left untouched and fresh arrays are returned.
    """
    a = np.asarray(x, dtype=float)
    n_in = params.weights[0].shape[1]
    if a.ndim not in (1, 2) or a.shape[-1] != n_in:
        raise ValidationError(
            f"expected input of shape ({n_in},) or (samples, {n_in}), got {a.shape}")
    shapes = [a.shape[:-1] + (w.shape[0],) for w in params.weights]
    if out is None or [z.shape for z in out.pre_activations] != shapes:
        out = ForwardTrace(pre_activations=[np.empty(s) for s in shapes],
                           activations=[a] + [np.empty(s) for s in shapes])
    out.activations[0] = a
    with np.errstate(over="ignore"):
        for w, b, z, a_next in zip(params.weights, params.biases, out.pre_activations,
                                   out.activations[1:]):
            np.matmul(a, w.T, out=z)
            z += b
            a = sigmoid(z, out=a_next)
    return out


def backward(trace: ForwardTrace, target, params: NetworkParams,
             out: BackwardTrace = None) -> BackwardTrace:
    """Backpropagate the quadratic loss C = 0.5 * ||a_out - target||^2.

    Output layer: delta = (a - y) * sigma'(z). Hidden layers: delta =
    (delta_next @ W_next) * sigma'(z), with sigma'(z) = a * (1 - a). Weight
    gradient: delta^T a_prev. For a batch, gradients and loss are means over
    the rows; for one vector they are that sample's.

    A result passed as `out` from a call on a trace of the same shape is
    overwritten and returned; one of any other shape is left untouched.
    """
    y = np.asarray(target, dtype=float)
    a_out = trace.activations[-1]
    if y.shape != a_out.shape:
        raise ValidationError(f"target shape {y.shape} does not match output {a_out.shape}")
    if len(trace.pre_activations) != len(params.weights):
        raise ValidationError("trace depth does not match params")

    depth = len(params.weights)
    samples = a_out.size // a_out.shape[-1]  # 1 for one vector
    shapes = ([z.shape for z in trace.pre_activations]
              + [a.shape for a in trace.activations[:-1]] + [a_out.shape])
    if out is None or [b.shape for b in out.work] != shapes:
        out = BackwardTrace(deltas=[np.empty(w.shape[0]) for w in params.weights],
                            weight_grads=[np.empty(w.shape) for w in params.weights],
                            input_delta=None, loss=None, work=[np.empty(s) for s in shapes])
    sample_deltas, backs, err = out.work[:depth], out.work[depth:-1], out.work[-1]

    np.subtract(a_out, y, out=err)
    delta = np.subtract(1.0, a_out, out=sample_deltas[-1])
    delta *= a_out
    delta *= err
    np.multiply(err, err, out=err)
    out.loss = 0.5 * float(err.sum()) / samples
    for l in range(depth - 1, -1, -1):
        a = trace.activations[l]
        delta_rows = np.atleast_2d(delta)
        delta_rows.mean(axis=0, out=out.deltas[l])
        np.matmul(delta_rows.T, np.atleast_2d(a), out=out.weight_grads[l])
        out.weight_grads[l] /= samples
        np.matmul(delta, params.weights[l], out=backs[l])
        if l > 0:
            delta = np.subtract(1.0, a, out=sample_deltas[l - 1])
            delta *= a
            delta *= backs[l]
    out.input_delta = backs[0]
    return out


def output_input_gradient(trace: ForwardTrace, params: NetworkParams) -> np.ndarray:
    """Gradient of the scalar output activation with respect to the input,
    one row per sample for a batch trace."""
    if params.weights[-1].shape[0] != 1:
        raise ValidationError("output-input gradient is defined for a single output neuron")
    out = trace.activations[-1]
    d = out * (1.0 - out)
    for l in range(len(params.weights) - 1, 0, -1):
        a = trace.activations[l]
        d = (d @ params.weights[l]) * (a * (1.0 - a))
    return d @ params.weights[0]


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


def train(inputs, targets, spec: LayerSpec, config: TrainConfig):
    """Full-batch gradient descent on the mean quadratic loss.

    Returns (trained NetworkParams, per-epoch loss list). Raises
    TrainingError with the epoch index if the loss stops being finite.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n_samples = x.shape[0]
    if x.shape != (n_samples, spec.sizes[0]) or y.shape != (n_samples, spec.sizes[-1]):
        raise ValidationError("data shapes do not match the layer spec")

    params = NetworkParams.initialize(spec, seed=config.seed)
    losses = []
    trace = grads = None
    for epoch in range(config.epochs):
        trace = forward(x, params, out=trace)
        grads = backward(trace, y, params, out=grads)
        if not np.isfinite(grads.loss):
            raise TrainingError("training loss diverged", epoch)
        losses.append(grads.loss)
        for l, (w_grad, b_grad) in enumerate(zip(grads.weight_grads, grads.deltas)):
            params.weights[l] = params.weights[l] - config.learning_rate * w_grad
            params.biases[l] = params.biases[l] - config.learning_rate * b_grad
    return params, losses


def input_sensitivities(inputs, params: NetworkParams) -> np.ndarray:
    """Mean absolute output gradient per input component, over all samples."""
    x = np.asarray(inputs, dtype=float)
    grads = np.empty_like(x)
    trace = None
    for i in range(x.shape[0]):
        trace = forward(x[i], params, out=trace)
        grads[i] = output_input_gradient(trace, params)
    return np.abs(grads).mean(axis=0)


@dataclass
class SweepResult:
    indicator_names: list
    sensitivities: np.ndarray  # per indicator, standardized-input space
    final_loss: float
    perturbation_rows: list  # (weight_id, weight_value, mean_output)
    variations: dict  # weight_id -> relative output variation over its sweep
    max_variation: float = field(init=False)

    def __post_init__(self):
        self.max_variation = max(self.variations.values()) if self.variations else 0.0


def standardize_columns(x):
    """Z-score per column; constant columns keep std 1 so they pass through."""
    x = np.asarray(x, dtype=float)
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds = np.where(stds == 0, 1.0, stds)
    return (x - means) / stds, means, stds


def perturbation_sweep(params: NetworkParams, inputs, span: float = 0.1, points: int = 11):
    """Sweep every weight across +/- span (relative) around its trained value.

    For each weight the mean network output over `inputs` is recorded at each
    grid point; the per-weight variation is (max - min) / baseline output.
    Weights exactly at zero sweep the absolute band [-span, span]. Returns
    (rows, variations). Raises TrainingError when the baseline output is 0.
    """
    x = np.asarray(inputs, dtype=float)
    trace = forward(x, params)
    baseline = float(trace.activations[-1].mean())
    if baseline == 0:
        raise TrainingError("trained network output is saturated at 0; relative weight "
                            "variation is undefined")
    rows, variations = [], {}
    for l, w in enumerate(params.weights):
        for j in range(w.shape[0]):
            for k in range(w.shape[1]):
                weight_id = f"w{l + 1}[{j},{k}]"
                center = w[j, k]
                half = abs(center) * span if center != 0 else span
                outputs = []
                for value in np.linspace(center - half, center + half, points):
                    w[j, k] = value
                    trace = forward(x, params, out=trace)
                    out = float(trace.activations[-1].mean())
                    outputs.append(out)
                    rows.append((weight_id, float(value), out))
                w[j, k] = center
                variations[weight_id] = (max(outputs) - min(outputs)) / abs(baseline)
    return rows, variations


def sensitivity_sweep(inputs, targets, spec: LayerSpec = None, config: TrainConfig = None,
                      indicator_names=None, span: float = 0.1, points: int = 11) -> SweepResult:
    """Train on (indicator table -> scores) and measure per-indicator sensitivity.

    Inputs are z-score standardized per indicator before training. Sensitivity
    of an indicator is the mean over samples of the absolute gradient of the
    network output with respect to that (standardized) input. Also runs the
    weight perturbation sweep on the trained network.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[0] < 10:
        raise ValidationError("need a 2-D indicator table with at least 10 samples")
    spec = spec or LayerSpec((x.shape[1],) + DEFAULT_LAYER_SIZES[1:])
    config = config or TrainConfig()
    if indicator_names is None:
        indicator_names = [f"x{j + 1}" for j in range(x.shape[1])]

    x_std, _, _ = standardize_columns(x)
    params, losses = train(x_std, targets, spec, config)
    sens = input_sensitivities(x_std, params)
    rows, variations = perturbation_sweep(params, x_std, span=span, points=points)
    return SweepResult(
        indicator_names=list(indicator_names),
        sensitivities=sens,
        final_loss=losses[-1],
        perturbation_rows=rows,
        variations=variations,
    )
