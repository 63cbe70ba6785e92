"""Small sigmoid feedforward network with hand-rolled backpropagation.

Used to quantify how sensitive the development score is to each input
indicator: train on (indicators -> score) pairs, then backpropagate to the
input layer and average absolute gradients per indicator. A weight
perturbation sweep records how much the output moves when individual weights
are displaced from their trained values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError, ValidationError, as_integer

DEFAULT_LAYER_SIZES = (7, 16, 1)
INIT_HALF_RANGE = 0.5  # weights and biases start uniform in [-0.5, 0.5]


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) elementwise, written into `out` when it is given.

    exp(-x) overflows for x below about -709 and the result saturates to 0
    cleanly; callers that expect such inputs enter np.errstate(over="ignore")
    to silence numpy's warning, once per `forward`, `train` or sweep.
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
        self.sizes = tuple(as_integer(s, "layer width") for s in self.sizes)
        if len(self.sizes) < 2:
            raise ValidationError("need at least an input and an output layer")
        if any(s < 1 for s in self.sizes):
            raise ValidationError("layer widths must be >= 1")


@dataclass
class NetworkParams:
    weights: list  # layer l: array (N_l, N_{l-1})
    biases: list  # layer l: array (N_l,)

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
        return cls(weights=weights, biases=biases)


@dataclass
class ForwardTrace:
    pre_activations: list  # z^1 .. z^L
    activations: list  # a^0 (the input) .. a^L


@dataclass
class BackwardTrace:
    deltas: list  # delta^1 .. delta^L, batch means (also the bias gradients)
    weight_grads: list  # batch means
    loss: float  # batch mean
    # one flat array that weight_grads then deltas view, laid out as `train` packs
    # the weights then the biases
    means: np.ndarray = field(default=None, repr=False)
    # per-sample arrays _backward writes into: delta^1 .. delta^L,
    # the loss gradients at a^1 .. a^(L-1), and the output error
    work: list = field(default_factory=list, repr=False)


def forward(x, params: NetworkParams) -> ForwardTrace:
    """Run the network on one input vector (n_in,) or a batch of rows
    (samples, n_in), recording z and a per layer."""
    a = np.asarray(x, dtype=float)
    n_in = params.weights[0].shape[1]
    if a.ndim not in (1, 2) or a.shape[-1] != n_in:
        raise ValidationError(
            f"expected input of shape ({n_in},) or (samples, {n_in}), got {a.shape}")
    shapes = [a.shape[:-1] + (w.shape[0],) for w in params.weights]
    trace = ForwardTrace(pre_activations=[np.empty(s) for s in shapes],
                         activations=[a] + [np.empty(s) for s in shapes])
    with np.errstate(over="ignore"):
        return _forward(a, params, trace)


def _forward(a, params: NetworkParams, trace: ForwardTrace, start: int = 0,
             unit: int = None) -> ForwardTrace:
    """forward's arithmetic, into a trace sized for `a`, under the caller's errstate.

    With `unit`, layers before `start` are read from the trace, and layer
    `start` takes its full product (so the column has a full pass's bits) but
    biases and activates only that unit. The other units then keep unbiased
    pre-activations: only the weight sweep does this, on a trace private to it.
    """
    trace.activations[0] = a
    for l in range(start, len(params.weights)):
        z, a_next, b = trace.pre_activations[l], trace.activations[l + 1], params.biases[l]
        np.matmul(trace.activations[l], params.weights[l].T, out=z)
        if l == start and unit is not None:
            z, a_next, b = z[..., unit], a_next[..., unit], b[unit]
        z += b
        sigmoid(z, out=a_next)
    return trace


def backward(trace: ForwardTrace, target, params: NetworkParams) -> BackwardTrace:
    """Backpropagate the quadratic loss C = 0.5 * ||a_out - target||^2.

    Output layer: delta = (a - y) * sigma'(z). Hidden layers: delta =
    (delta_next @ W_next) * sigma'(z), with sigma'(z) = a * (1 - a). Weight
    gradient: delta^T a_prev. For a batch, gradients and loss are means over
    the rows; one vector is taken as a batch of one row.
    """
    y = np.asarray(target, dtype=float)
    a_out = trace.activations[-1]
    if y.shape != a_out.shape:
        raise ValidationError(f"target shape {y.shape} does not match output {a_out.shape}")
    if len(trace.pre_activations) != len(params.weights):
        raise ValidationError("trace depth does not match params")
    acts = [np.atleast_2d(a) for a in trace.activations]  # a vector is a one-row batch
    means, views = _packed(params.weights + params.biases)  # _backward overwrites it
    depth = len(params.weights)
    grads = BackwardTrace(deltas=views[depth:], weight_grads=views[:depth], loss=None,
                          means=means, work=[np.empty(a.shape) for a in acts[1:] * 2])
    return _backward(acts, np.atleast_2d(y), params, grads)


def _backward(acts: list, y, params: NetworkParams, grads: BackwardTrace) -> BackwardTrace:
    """backward's arithmetic on a batch's activations, into buffers sized for
    them. A mean is a sum then a division by the row count, as ndarray.mean
    does it, and `grads.means` takes them all in one division. delta @ W with
    a one-row W is an einsum, bit-equal since each entry is one product."""
    depth = len(params.weights)
    samples = len(y)
    sample_deltas, backs = grads.work[:depth], grads.work[depth:]
    back = np.subtract(acts[-1], y, out=backs[-1])  # the output error
    for l in range(depth - 1, -1, -1):
        delta = np.subtract(1.0, acts[l + 1], out=sample_deltas[l])
        delta *= acts[l + 1]
        delta *= back
        if delta.shape[1] > 1:  # einsum adds C-order rows in order, as add.reduce does
            np.einsum("ij->j", delta, out=grads.deltas[l])
        else:  # add.reduce sums a contiguous column pairwise, einsum would not
            np.add.reduce(delta, axis=0, out=grads.deltas[l])
        np.matmul(delta.T, acts[l], out=grads.weight_grads[l])
        if l > 0:
            w = params.weights[l]
            back = (np.einsum("ik,kj->ij", delta, w, out=backs[l - 1]) if len(w) == 1
                    else np.matmul(delta, w, out=backs[l - 1]))
    grads.means /= samples
    err = np.multiply(backs[-1], backs[-1], out=backs[-1])
    grads.loss = 0.5 * float(np.add.reduce(err, axis=None)) / samples
    return grads


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
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


def _packed(arrays: list):
    """A flat copy of `arrays` laid end to end, and a view into it shaped like each."""
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
    parts = np.split(flat, np.cumsum([np.size(a) for a in arrays])[:-1])
    return flat, [part.reshape(np.shape(a)) for part, a in zip(parts, arrays)]


def train(inputs, targets, spec: LayerSpec, config: TrainConfig):
    """Full-batch gradient descent on the mean quadratic loss. The first pass
    through `forward` and `backward` checks the data and allocates every buffer;
    later epochs run the kernels into them and update the parameters, views into
    one flat array laid out as the gradient means, in one in-place operation.

    Returns (trained NetworkParams, per-epoch loss list). Raises TrainingError
    with the epoch index if the loss stops being finite, and ValidationError if
    layer_sizes do not fit the data's widths or cannot be allocated.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if spec.sizes[0] != x.shape[-1] or spec.sizes[-1] != y.shape[-1]:
        raise ValidationError(f"layer_sizes must fit the data: {x.shape[-1]} in, {y.shape[-1]} out")
    try:
        initial = NetworkParams.initialize(spec, seed=config.seed)
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"layer_sizes cannot be initialised: {exc}") from None
    theta, views = _packed(initial.weights + initial.biases)
    depth = len(initial.weights)
    params = NetworkParams(weights=views[:depth], biases=views[depth:])
    trace = forward(x, params)
    grads = backward(trace, y, params)
    lr = config.learning_rate
    losses = []
    with np.errstate(over="ignore"):
        for epoch in range(config.epochs):
            if epoch:
                _backward(_forward(x, params, trace).activations, y, params, grads)
            if not math.isfinite(grads.loss):
                raise TrainingError("training loss diverged", epoch)
            losses.append(grads.loss)
            theta -= np.multiply(grads.means, lr, out=grads.means)  # the next pass rewrites it
    return params, losses


def input_sensitivities(inputs, params: NetworkParams) -> np.ndarray:
    """Mean absolute output gradient per input component, over all samples."""
    x = np.asarray(inputs, dtype=float)
    trace = forward(x[0], params)
    with np.errstate(over="ignore"):
        grads = [output_input_gradient(_forward(row, params, trace), params) for row in x]
    return np.abs(grads).mean(axis=0)


@dataclass
class SweepResult:
    indicator_names: list
    sensitivities: np.ndarray  # per indicator, standardized-input space
    final_loss: float
    perturbation_rows: list  # (weight_id, weight_value, mean_output)
    variations: dict  # weight_id -> relative output variation over its sweep
    max_variation: float


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

    Moving w[j, k] of layer l changes only unit j there, so each pass recomputes
    that unit and the layers after it; one more pass per weight puts it back.
    """
    x = np.asarray(inputs, dtype=float)
    trace = forward(x, params)
    baseline = float(trace.activations[-1].mean())
    if baseline == 0:
        raise TrainingError("trained network output is saturated at 0; relative weight "
                            "variation is undefined")
    rows, variations = [], {}
    with np.errstate(over="ignore"):
        for l, w in enumerate(params.weights):
            for (j, k), center in np.ndenumerate(w):
                weight_id = f"w{l + 1}[{j},{k}]"
                half = abs(center) * span if center != 0 else span
                outputs = []
                for value in np.linspace(center - half, center + half, points):
                    w[j, k] = value
                    out = float(_forward(x, params, trace, l, j).activations[-1].mean())
                    outputs.append(out)
                    rows.append((weight_id, float(value), out))
                w[j, k] = center
                _forward(x, params, trace, l, j)
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
        max_variation=max(variations.values(), default=0.0),
    )
