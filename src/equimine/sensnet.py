"""Small sigmoid feedforward network with hand-rolled backpropagation: trained on
(indicators -> score) pairs, its mean absolute input gradients rank the indicators,
and a weight perturbation sweep records how much the output moves when single
weights leave their trained values."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EquimineError, ValidationError, as_integer, as_real

INIT_HALF_RANGE = 0.5  # weights and biases start uniform in [-0.5, 0.5]
SWEEP_SPAN = 0.1  # the weight sweep moves each weight across +/- 10% of its value
SWEEP_POINTS = 11  # on 11 evenly spaced points
TILE_ROWS = 512  # from two tiles of rows on, a layer of 2+ units adds biases by tiles
STACK_ROWS = 1024  # the sweep stacks all grid points up to here; from ~1,400 that is slower
CONTIGUOUS_INPUTS = 16  # a product of 2+ rows into fewer inputs takes a contiguous W.T
MIN_SAMPLES = 10  # the fewest indicator records sensitivity_sweep trains on


def sigmoid(x, out):
    """1 / (1 + exp(-x)) elementwise, written into `out`. Below x = -709 exp(-x)
    overflows and the result saturates to 0 cleanly; `forward`, `train` and the
    sweep enter np.errstate(over="ignore") once around their passes."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


@dataclass
class TrainConfig:
    layer_sizes: tuple = (7, 16, 1)  # widths from the input to the output layer
    learning_rate: float = 0.1
    epochs: int = 5000
    seed: int = 0

    def __post_init__(self):
        try:
            self.layer_sizes = tuple(as_integer(s, "layer width") for s in self.layer_sizes)
        except TypeError:
            raise ValidationError(
                f"layer_sizes must be an integer sequence, got {self.layer_sizes!r}") from None
        self.learning_rate = as_real(self.learning_rate, "learning_rate")
        self.epochs, self.seed = as_integer(self.epochs, "epochs"), as_integer(self.seed, "seed")
        if len(self.layer_sizes) < 2:
            raise ValidationError("need at least an input and an output layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ValidationError("layer widths must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


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
    def initialize(cls, config: TrainConfig):
        """Deterministic uniform init in [-0.5, 0.5] of the config's layers from its seed."""
        rng, sizes = np.random.default_rng(config.seed), config.layer_sizes
        weights, biases = [], []
        for n_in, n_out in zip(sizes, sizes[1:]):
            weights.append(rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, size=(n_out, n_in)))
            biases.append(rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, size=n_out))
        return cls(weights=weights, biases=biases)


@dataclass
class ForwardTrace:
    activations: list  # a^0 (the input) .. a^L; _forward writes z^l into a^l first
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
    (samples, n_in), recording a per layer."""
    with np.errstate(over="ignore"):
        return _forward(params, _trace(_batch(x, params, vector=True), params))


def _batch(inputs, params: NetworkParams, vector=False) -> np.ndarray:
    """`inputs` as floats, checked to be rows (samples >= 1, n_in), or with `vector` (n_in,)."""
    a, n_in = np.asarray(inputs, dtype=float), params.weights[0].shape[1]
    if a.ndim not in ((1, 2) if vector else (2,)) or a.shape[-1] != n_in or len(a) == 0:
        raise ValidationError(f"expected input of shape {f'({n_in},) or ' if vector else ''}"
                              f"(samples >= 1, {n_in}), got {a.shape}")
    return a


def _trace(a, params: NetworkParams) -> ForwardTrace:
    """A trace for `a` through `params`: one buffer per layer, which takes the layer's z,
    then its a. A batch of two tiles or more gets its bias tile."""
    widths = [len(w) for w in params.weights]
    tile = np.empty((TILE_ROWS, max(widths))) if a.ndim == 2 and len(a) >= 2 * TILE_ROWS else None
    return ForwardTrace([a] + [np.empty(a.shape[:-1] + (n,)) for n in widths], tile)


def _contiguous(a, w) -> bool:
    """Whether _forward multiplies `a` by a contiguous w.T, which has the view's bits."""
    return a.ndim == 2 and len(a) > 1 and w.shape[1] < CONTIGUOUS_INPUTS


def _forward(params: NetworkParams, trace: ForwardTrace, start: int = 0) -> ForwardTrace:
    """forward's arithmetic on the trace's input from layer `start` on (earlier layers are
    read from the trace), under the caller's errstate. Each layer's z is written into
    its activation, and the sigmoid taken in place. Tiles add where they are faster."""
    for l in range(start, len(params.weights)):
        a_in, z = trace.activations[l], trace.activations[l + 1]
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
        sigmoid(z, out=z)
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
    if len(trace.activations) != len(params.weights) + 1:
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
    d = 1.0
    for w, a in zip(params.weights[::-1], trace.activations[:0:-1]):
        d = (d * (a * (1.0 - a))) @ w  # sigma'(z) = a * (1 - a), then back through W
    return d


def _packed(arrays: list):
    """A flat copy of `arrays` laid end to end, and a view into it shaped like each."""
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
    parts = np.split(flat, np.cumsum([np.size(a) for a in arrays])[:-1])
    return flat, [part.reshape(np.shape(a)) for part, a in zip(parts, arrays)]


def train(inputs, targets, config: TrainConfig):
    """Full-batch gradient descent on the mean quadratic loss. Every buffer is
    allocated once: two (rows, width) arrays per layer, as the trace's z are its
    activations, the output error and the bias tile; only _forward's contiguous
    copies of W.T are made anew each epoch. An epoch runs the kernels into them and
    updates the parameters, views into one flat array laid out as the gradient means,
    in one in-place operation. Returns (trained NetworkParams, per-epoch losses);
    raises EquimineError naming the epoch if the loss stops being finite, and
    ValidationError if the batch has no rows or layer_sizes do not fit the data or memory."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    y = y[:, None] if y.ndim == 1 else y
    sizes, depth = config.layer_sizes, len(config.layer_sizes) - 1
    if x.ndim != 2 or x.shape[1] != sizes[0] or y.shape != (len(x), sizes[-1]):
        raise ValidationError(f"layer_sizes must fit the data: inputs {x.shape}, targets {y.shape}")
    try:
        initial = NetworkParams.initialize(config)
        theta, views = _packed(initial.weights + initial.biases)
        params = NetworkParams(weights=views[:depth], biases=views[depth:])
        trace = _trace(_batch(x, params), params)
        grads = _gradients(params, trace.activations)
    except ValidationError:  # from _batch: the batch has no rows
        raise
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"layer_sizes cannot be initialised: {exc}") from None
    lr, losses = config.learning_rate, []
    with np.errstate(over="ignore"):
        for epoch in range(config.epochs):
            _backward(_forward(params, trace).activations, y, params, grads)
            if not math.isfinite(grads.loss):
                raise EquimineError(f"training loss diverged (epoch {epoch})")
            losses.append(grads.loss)
            theta -= np.multiply(grads.means, lr, out=grads.means)  # the next pass rewrites it
    return params, losses


def input_sensitivities(inputs, params: NetworkParams) -> np.ndarray:
    """Mean absolute output gradient per input component, over all samples, from one pass
    on the rows stacked as one-row batches (samples, 1, n_in), which keep a vector's bits."""
    x = _batch(inputs, params)[:, None]
    with np.errstate(over="ignore"):
        trace = _forward(params, _trace(x, params))
    return np.abs(output_input_gradient(trace, params)[:, 0]).mean(axis=0)


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
    Returns (rows, variations); raises EquimineError when the baseline output is 0.

    Moving w[j, k] of layer l changes only unit j. Where _forward takes a contiguous
    product into several units, one product by SWEEP_POINTS copies of W[j], w[j, k] set
    to each grid value, gives unit j's column at every point with a full pass's bits for
    a pass from layer l + 1; other layers pass from l with a (depth, units, inputs) stack
    of W, w[j, k] set per slice. Either way the points run as a (depth, rows, width) stack,
    and matmul calls BLAS per slice, which keeps each point's bits: all SWEEP_POINTS up to
    STACK_ROWS rows, above that one. The trained parameters are only read."""
    x = _batch(inputs, params)
    depth = SWEEP_POINTS if len(x) <= STACK_ROWS else 1
    trace, rows, variations = _trace(x, params), [], {}
    stacked = _trace(np.broadcast_to(x, (depth,) + x.shape), params)
    with np.errstate(over="ignore"):
        baseline = float(_forward(params, trace).activations[-1].mean())
        if baseline == 0:
            raise EquimineError("trained network output is saturated at 0; relative weight "
                                "variation is undefined")
        for l, w in enumerate(params.weights):
            a_in, a_next = trace.activations[l], trace.activations[l + 1]
            np.copyto(stack := stacked.activations[l + 1], a_next)
            if grid := len(w) > 1 and _contiguous(a_in, w):
                units = NetworkParams([np.zeros((SWEEP_POINTS, w.shape[1]))], [np.zeros(SWEEP_POINTS)])
                units_trace = _trace(a_in, units)
                moved, sweep, start = stack, params, l + 1
            else:  # .copy() keeps each slice C-contiguous, as a one-row product needs
                moved = np.broadcast_to(w, (depth,) + w.shape).copy()
                sweep, start = NetworkParams(list(params.weights), params.biases), l
                sweep.weights[l] = moved.transpose(1, 2, 0)  # its .T is each slice's W.T
            for (j, k), center in np.ndenumerate(w):
                weight_id = f"w{l + 1}[{j},{k}]"
                half = abs(center) * SWEEP_SPAN if center != 0 else SWEEP_SPAN
                points = values = np.linspace(center - half, center + half, SWEEP_POINTS)
                if grid:  # the stack's later layers do not read w[j, k]
                    units.weights[0][:], units.biases[0][:] = w[j], params.biases[l][j]
                    units.weights[0][:, k] = values
                    points = _forward(units, units_trace).activations[1].T
                at, rest = (np.s_[:, :, j], a_next[:, j]) if grid else (np.s_[:, j, k], center)
                outputs = []
                for i in range(0, SWEEP_POINTS, depth):
                    moved[at] = points[i:i + depth]
                    out = _forward(sweep, stacked, start).activations[-1]
                    outputs += out.reshape(depth, -1).mean(axis=1).tolist()
                moved[at] = rest
                rows += [(weight_id, value, out) for value, out in zip(values.tolist(), outputs)]
                variations[weight_id] = (max(outputs) - min(outputs)) / abs(baseline)
            np.copyto(stack, a_next)  # the next layer's stacked pass may read it
    return rows, variations


def sensitivity_sweep(inputs, targets, config: TrainConfig, indicator_names) -> SweepResult:
    """Train on (indicator table -> scores), inputs z-scored per indicator, and
    measure each indicator's sensitivity: the mean over samples of the absolute
    gradient of the output with respect to that standardized input. Also runs the
    weight perturbation sweep on the trained network."""
    x = np.asarray(inputs, dtype=float)
    if (records := len(x) if x.ndim == 2 else 0) < MIN_SAMPLES:  # a table's rows are records
        raise ValidationError(f"the indicator table has {records} records; the sensitivity "
                              f"network needs at least {MIN_SAMPLES}")
    x_std = standardize_columns(x, indicator_names)
    params, losses = train(x_std, targets, config)
    sens = input_sensitivities(x_std, params)
    rows, variations = perturbation_sweep(params, x_std)
    return SweepResult(
        sensitivities=sens,
        final_loss=losses[-1],
        perturbation_rows=rows,
        max_variation=max(variations.values(), default=0.0),
    )
