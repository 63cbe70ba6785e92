"""Small sigmoid feedforward network with hand-rolled backpropagation: trained on
(indicators -> score) pairs, its mean absolute input gradients rank the indicators,
and a weight perturbation sweep records how much the output moves when single
weights leave their trained values."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError, ValidationError, as_integer

DEFAULT_LAYER_SIZES = (7, 16, 1)
INIT_HALF_RANGE = 0.5  # weights and biases start uniform in [-0.5, 0.5]
SWEEP_SPAN = 0.1  # the weight sweep moves each weight across +/- 10% of its value
SWEEP_POINTS = 11  # on 11 evenly spaced points
TILE_ROWS = 512  # from two tiles of rows on, a layer of 2+ units adds biases by tiles
CONTIGUOUS_INPUTS = 16  # a product of 2+ rows into fewer inputs takes a contiguous W.T


def sigmoid(x, out):
    """1 / (1 + exp(-x)) elementwise, written into `out`. Below x = -709 exp(-x)
    overflows and the result saturates to 0 cleanly; `forward`, `train` and the
    sweep enter np.errstate(over="ignore") once around their passes."""
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
    tile: np.ndarray = field(default=None, repr=False)  # _forward's bias tile, if tiled


@dataclass
class BackwardTrace:
    deltas: list  # delta^1 .. delta^L, batch means (also the bias gradients)
    weight_grads: list  # batch means
    loss: float  # batch mean
    # one flat array that weight_grads then deltas view, laid out as `train` packs params
    means: np.ndarray = field(default=None, repr=False)
    work: list = field(default_factory=list, repr=False)  # per-sample deltas, output error


def forward(x, params: NetworkParams) -> ForwardTrace:
    """Run the network on one input vector (n_in,) or a batch of rows
    (samples, n_in), recording z and a per layer."""
    a = np.asarray(x, dtype=float)
    n_in = params.weights[0].shape[1]
    if a.ndim not in (1, 2) or a.shape[-1] != n_in:
        raise ValidationError(
            f"expected input of shape ({n_in},) or (samples, {n_in}), got {a.shape}")
    trace = _trace(a, [len(w) for w in params.weights])
    with np.errstate(over="ignore"):
        return _forward(a, params, trace)


def _trace(a, widths, in_place=False) -> ForwardTrace:
    """A trace for `a` through layers of these widths; with `in_place` its z are its
    activations. A batch of two tiles or more gets its bias tile."""
    acts = [a] + [np.empty(a.shape[:-1] + (n,)) for n in widths]
    tile = np.empty((TILE_ROWS, max(widths))) if a.ndim == 2 and len(a) >= 2 * TILE_ROWS else None
    return ForwardTrace(acts[1:] if in_place else [np.empty(z.shape) for z in acts[1:]], acts, tile)


def _contiguous(a, w) -> bool:
    """Whether _forward multiplies `a` by a contiguous w.T, which has the view's bits."""
    return a.ndim == 2 and len(a) > 1 and w.shape[1] < CONTIGUOUS_INPUTS


def _forward(a, params: NetworkParams, trace: ForwardTrace, start: int = 0) -> ForwardTrace:
    """forward's arithmetic from layer `start` on (earlier layers are read from the trace),
    into a trace sized for `a`, under the caller's errstate. A trace whose z are its
    activations, as train's, takes each layer in place. Tiles add where they are faster."""
    trace.activations[0] = a
    for l in range(start, len(params.weights)):
        z, a_in = trace.pre_activations[l], trace.activations[l]
        w, b = params.weights[l], params.biases[l]
        np.matmul(a_in, np.ascontiguousarray(w.T) if _contiguous(a_in, w) else w.T, out=z)
        if trace.tile is None or len(b) == 1:  # numpy's broadcast is the faster add there
            z += b
        else:  # z is C-contiguous, as _trace makes it, so `blocks` is a view
            tile = trace.tile.ravel()[:TILE_ROWS * len(b)].reshape(TILE_ROWS, -1)
            tile[...] = b
            body = len(z) // TILE_ROWS * TILE_ROWS
            blocks = z[:body].reshape(-1, TILE_ROWS, len(b))
            blocks += tile
            z[body:] += tile[:len(z) - body]
        sigmoid(z, out=trace.activations[l + 1])
    return trace


def backward(trace: ForwardTrace, target, params: NetworkParams) -> BackwardTrace:
    """Backpropagate the quadratic loss C = 0.5 * ||a_out - target||^2: delta =
    (a - y) * sigma'(z) at the output and (delta_next @ W_next) * sigma'(z) below,
    with sigma'(z) = a * (1 - a); weight gradient delta^T a_prev. A batch gives
    means over its rows; one vector is taken as a batch of one row."""
    y = np.asarray(target, dtype=float)
    a_out = trace.activations[-1]
    if y.shape != a_out.shape:
        raise ValidationError(f"target shape {y.shape} does not match output {a_out.shape}")
    if len(trace.pre_activations) != len(params.weights):
        raise ValidationError("trace depth does not match params")
    acts = [np.atleast_2d(a) for a in trace.activations]  # a vector is a one-row batch
    acts[1:-1] = [a.copy() for a in acts[1:-1]]  # _backward overwrites them
    return _backward(acts, np.atleast_2d(y), params, _gradients(params, acts))


def _gradients(params: NetworkParams, acts: list) -> BackwardTrace:
    """A BackwardTrace whose buffers fit the batch `acts`, for _backward to fill."""
    means, views = _packed(params.weights + params.biases)  # _backward overwrites it
    depth = len(params.weights)
    return BackwardTrace(deltas=views[depth:], weight_grads=views[:depth], loss=None,
                         means=means, work=[np.empty(a.shape) for a in acts[1:] + acts[-1:]])


def _backward(acts: list, y, params: NetworkParams, grads: BackwardTrace) -> BackwardTrace:
    """backward's arithmetic on a batch's activations, into buffers sized for
    them. Once sigma' of a hidden a^l is taken, the loss gradient at it,
    delta^(l+1) @ W^(l+1), overwrites a^l. A mean is a sum then a division by
    the row count, as ndarray.mean does it, and `grads.means` takes them all in
    one division. delta @ W with a one-row W is an np.dot, bit-equal since each
    entry is one product."""
    depth = len(params.weights)
    back = np.subtract(acts[-1], y, out=grads.work[-1])  # the output error
    for l in range(depth - 1, -1, -1):
        delta = np.subtract(1.0, acts[l + 1], out=grads.work[l])
        delta *= acts[l + 1]
        if l < depth - 1:
            w, below = params.weights[l + 1], grads.work[l + 1]
            back = (np.dot(below, w, out=acts[l + 1]) if len(w) == 1
                    else np.matmul(below, w, out=acts[l + 1]))
        delta *= back
        if delta.shape[1] > 1:  # einsum adds C-order rows in order, as add.reduce does
            np.einsum("ij->j", delta, out=grads.deltas[l])
        else:  # add.reduce sums a contiguous column pairwise, einsum would not
            np.add.reduce(delta, axis=0, out=grads.deltas[l])
        np.matmul(delta.T, acts[l], out=grads.weight_grads[l])
    grads.means /= len(y)
    err = np.multiply(grads.work[-1], grads.work[-1], out=grads.work[-1])
    grads.loss = 0.5 * float(np.add.reduce(err, axis=None)) / len(y)
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
    """Full-batch gradient descent on the mean quadratic loss. Every buffer is
    allocated once: two (rows, width) arrays per layer, as the trace's z are its
    activations, the output error and the bias tile; only _forward's contiguous
    copies of W.T are made anew each epoch. An epoch runs the kernels into them and
    updates the parameters, views into one flat array laid out as the gradient means,
    in one in-place operation. Returns (trained NetworkParams, per-epoch losses);
    raises TrainingError with the epoch if the loss stops being finite, and
    ValidationError if layer_sizes do not fit the data or memory."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    y = y[:, None] if y.ndim == 1 else y
    if x.ndim != 2 or x.shape[1] != spec.sizes[0] or y.shape != (len(x), spec.sizes[-1]):
        raise ValidationError(f"layer_sizes must fit the data: inputs {x.shape}, targets {y.shape}")
    depth = len(spec.sizes) - 1
    try:
        initial = NetworkParams.initialize(spec, seed=config.seed)
        theta, views = _packed(initial.weights + initial.biases)
        params = NetworkParams(weights=views[:depth], biases=views[depth:])
        trace = _trace(x, spec.sizes[1:], in_place=True)
        grads = _gradients(params, trace.activations)
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"layer_sizes cannot be initialised: {exc}") from None
    lr, losses = config.learning_rate, []
    with np.errstate(over="ignore"):
        for epoch in range(config.epochs):
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
    sensitivities: np.ndarray  # per indicator, standardized-input space
    final_loss: float
    perturbation_rows: list  # (weight_id, weight_value, mean_output)
    max_variation: float


def standardize_columns(x, labels):
    """Z-score per column; constant columns keep std 1 so they pass through. A
    column whose mean or std overflows is rejected, named by `labels`."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        means, stds = x.mean(axis=0), x.std(axis=0)
    if (overflowed := ~np.isfinite(means) | ~np.isfinite(stds)).any():
        raise ValidationError(f"indicator {labels[overflowed.argmax()]!r} overflows the float "
                              "range when standardized")
    return (x - means) / np.where(stds == 0, 1.0, stds)


def perturbation_sweep(params: NetworkParams, inputs):
    """Sweep every weight across +/- SWEEP_SPAN (relative) around its trained value,
    recording the mean output over `inputs` at each grid point; the variation is
    (max - min) / baseline output. A zero weight sweeps [-SWEEP_SPAN, SWEEP_SPAN].
    Returns (rows, variations); raises TrainingError when the baseline output is 0.

    Moving w[j, k] of layer l changes only unit j. Where _forward takes a contiguous
    product into several units, one product by SWEEP_POINTS copies of W[j], w[j, k] set
    to each grid value, gives unit j's column at every point with a full pass's bits;
    the later layers then run. Elsewhere a point runs from layer l. A pass per unit resets."""
    x = np.asarray(inputs, dtype=float)
    trace = forward(x, params)
    baseline = float(trace.activations[-1].mean())
    if baseline == 0:
        raise TrainingError("trained network output is saturated at 0; relative weight "
                            "variation is undefined")
    rows, variations = [], {}
    with np.errstate(over="ignore"):
        for l, w in enumerate(params.weights):
            a_in, a_next = trace.activations[l], trace.activations[l + 1]
            if grid := len(w) > 1 and _contiguous(a_in, w):
                units = NetworkParams([np.zeros((SWEEP_POINTS, w.shape[1]))],
                                      [np.zeros(SWEEP_POINTS)])
                units_trace = _trace(a_in, [SWEEP_POINTS], in_place=True)
            for (j, k), center in np.ndenumerate(w):
                weight_id = f"w{l + 1}[{j},{k}]"
                half = abs(center) * SWEEP_SPAN if center != 0 else SWEEP_SPAN
                values = np.linspace(center - half, center + half, SWEEP_POINTS)
                if grid:
                    units.weights[0][:], units.biases[0][:] = w[j], params.biases[l][j]
                    units.weights[0][:, k] = values
                    columns = _forward(a_in, units, units_trace).activations[1]
                outputs = []
                for i, value in enumerate(values):
                    w[j, k] = value  # a grid pass, from layer l + 1, does not read it
                    if grid:
                        a_next[:, j] = columns[:, i]
                    out = float(_forward(x, params, trace, l + grid).activations[-1].mean())
                    outputs.append(out)
                    rows.append((weight_id, float(value), out))
                w[j, k] = center
                if k == w.shape[1] - 1:
                    _forward(x, params, trace, l)
                variations[weight_id] = (max(outputs) - min(outputs)) / abs(baseline)
    return rows, variations


def sensitivity_sweep(inputs, targets, spec: LayerSpec, config: TrainConfig,
                      indicator_names) -> SweepResult:
    """Train on (indicator table -> scores), inputs z-scored per indicator, and
    measure each indicator's sensitivity: the mean over samples of the absolute
    gradient of the output with respect to that standardized input. Also runs the
    weight perturbation sweep on the trained network."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[0] < 10:
        raise ValidationError("need a 2-D indicator table with at least 10 samples")
    x_std = standardize_columns(x, indicator_names)
    params, losses = train(x_std, targets, spec, config)
    sens = input_sensitivities(x_std, params)
    rows, variations = perturbation_sweep(params, x_std)
    return SweepResult(
        sensitivities=sens,
        final_loss=losses[-1],
        perturbation_rows=rows,
        max_variation=max(variations.values(), default=0.0),
    )
