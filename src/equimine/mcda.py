"""AHP weight derivation and consistency checking for pairwise comparison matrices."""

from dataclasses import dataclass

import numpy as np

from .errors import EquimineError, ValidationError, check_labels

METHODS = ("arithmetic-mean", "geometric-mean", "eigenvalue")

# Saaty's random consistency index by matrix order n = 1..10.
RI_TABLE = (0.00, 0.00, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)

_RECIPROCITY_RTOL = 1e-9
_ENTRY_MAX = 1e100  # past Saaty's 9, and no AHP sum can overflow nor weight reach 0
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 10_000


@dataclass
class PairwiseMatrix:
    """Square positive reciprocal comparison matrix.

    Entries are validated (within [1e-100, 1e100], unit diagonal, reciprocity
    within relative tolerance 1e-9) and then symmetrized from the upper triangle
    so that a_ji = 1/a_ij holds exactly after construction.
    """

    entries: np.ndarray
    labels: list = None

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"comparison matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise ValidationError("comparison matrix needs at least 2 criteria")
        if not np.all((a >= 1 / _ENTRY_MAX) & (a <= _ENTRY_MAX)):  # NaN fails too
            raise ValidationError("comparison matrix entries must lie in [1e-100, 1e100]")
        if np.any(np.diag(a) != 1.0):
            raise ValidationError("comparison matrix diagonal must be exactly 1")
        products = a * a.T
        if np.any(np.abs(products - 1.0) > _RECIPROCITY_RTOL):
            i, j = np.unravel_index(np.argmax(np.abs(products - 1.0)), a.shape)
            raise ValidationError(
                f"matrix is not reciprocal at ({i},{j}): "
                f"a_ij*a_ji = {products[i, j]:.12g}"
            )
        # CSV round-tripping introduces rounding; enforce exact reciprocity.
        iu, ju = np.triu_indices(n, k=1)
        a[ju, iu] = 1.0 / a[iu, ju]
        self.entries = a
        if self.labels is None:
            self.labels = [f"C{i + 1}" for i in range(n)]
        check_labels(self.labels, n, "criterion")


@dataclass
class WeightVector:
    """Normalized criterion weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0):
            raise ValidationError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError(f"weights must sum to 1, got {w.sum():.12g}")
        self.weights = w


@dataclass
class ConsistencyReport:
    lambda_max: float
    ci: float
    ri: float
    cr: float
    passes: bool


def derive_weights(matrix: PairwiseMatrix, method: str = "eigenvalue") -> WeightVector:
    """Derive a normalized weight vector from a pairwise comparison matrix.

    Parameters
    ----------
    matrix : PairwiseMatrix
        Validated reciprocal comparison matrix.
    method : str
        One of "arithmetic-mean" (row means of the column-normalized matrix),
        "geometric-mean" (normalized row geometric means) or "eigenvalue"
        (normalized dominant eigenvector via power iteration).

    Returns
    -------
    WeightVector with weights summing to 1.
    """
    a = matrix.entries
    if method == "arithmetic-mean":
        w = (a / a.sum(axis=0)).mean(axis=1)
    elif method == "geometric-mean":
        g = np.exp(np.log(a).mean(axis=1))
        w = g / g.sum()
    elif method == "eigenvalue":
        w = _power_iteration(a)
    else:
        raise ValidationError(f"unknown weighting method {method!r}")
    w = w / w.sum()
    return WeightVector(weights=w)


def _power_iteration(a: np.ndarray) -> np.ndarray:
    # Uniform start reaches the Perron vector of any positive matrix.
    n = a.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(_POWER_MAX_ITER):
        w_next = a @ w
        w_next /= w_next.sum()
        if np.max(np.abs(w_next - w)) < _POWER_TOL:
            return w_next
        w = w_next
    raise EquimineError(f"power iteration did not converge (after {_POWER_MAX_ITER} iterations)")


def lambda_max(matrix: PairwiseMatrix) -> float:
    """Dominant eigenvalue estimate: mean of (A w)_i / w_i over the rows, w the
    eigenvalue-method weights."""
    w = derive_weights(matrix, "eigenvalue").weights
    return float(np.mean((matrix.entries @ w) / w))


def consistency_from_lambda(lam: float, n: int) -> ConsistencyReport:
    """Build a consistency report from a known dominant eigenvalue.

    CI = (lambda - n)/(n - 1), CR = CI/RI. For n = 1 CI is defined as 0, and
    whenever RI = 0 (n <= 2) CR is defined as 0 since
    such matrices are consistent by construction. lambda >= n holds for every
    positive reciprocal matrix, so a negative CI is rounding and is clamped
    to 0.
    """
    if n < 1:
        raise ValidationError("matrix order must be >= 1")
    if n > len(RI_TABLE):
        raise ValidationError(f"no RI value for n = {n}; the RI table covers 1..{len(RI_TABLE)}")
    ri = float(RI_TABLE[n - 1])
    ci = 0.0 if n == 1 else max((lam - n) / (n - 1), 0.0)
    cr = ci / ri if ri > 0 else 0.0
    return ConsistencyReport(lambda_max=lam, ci=ci, ri=ri, cr=cr, passes=cr < 0.1)


def consistency(matrix: PairwiseMatrix) -> ConsistencyReport:
    """Check a comparison matrix for acceptable consistency (CR < 0.1)."""
    return consistency_from_lambda(lambda_max(matrix), len(matrix.entries))
