"""TOPSIS ranking: indicator forwarding, vector normalization, closeness scores."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, ValidationError

KINDS = ("benefit", "cost", "intermediate")


@dataclass(frozen=True)
class IndicatorKind:
    """Column type for forwarding. Intermediate columns carry their optimum."""

    kind: str
    x_best: float = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown indicator kind {self.kind!r}")
        if self.kind == "intermediate":
            if self.x_best is None or not np.isfinite(self.x_best):
                raise ValidationError("intermediate kind needs a finite x_best")

    @classmethod
    def benefit(cls):
        return cls("benefit")

    @classmethod
    def cost(cls):
        return cls("cost")

    @classmethod
    def intermediate(cls, x_best: float):
        return cls("intermediate", float(x_best))

    @classmethod
    def parse(cls, text: str):
        """Parse a header annotation: 'benefit', 'cost' or 'mid=<x_best>'."""
        if text == "benefit":
            return cls.benefit()
        if text == "cost":
            return cls.cost()
        if text.startswith("mid="):
            try:
                x_best = float(text[4:])
            except ValueError:
                raise ValidationError(f"bad optimum in kind annotation {text!r}") from None
            return cls.intermediate(x_best)
        raise ValidationError(f"unknown kind annotation {text!r}")


@dataclass
class DecisionMatrix:
    """Alternatives x indicators table with per-column kinds."""

    values: np.ndarray
    alternative_labels: list
    indicator_kinds: list
    indicator_labels: list = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValidationError(f"decision matrix must be 2-D and non-empty, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("decision matrix has missing or non-finite entries")
        n, m = v.shape
        if len(self.alternative_labels) != n:
            raise ValidationError(f"expected {n} alternative labels")
        if len(self.indicator_kinds) != m:
            raise ValidationError(f"expected {m} indicator kinds")
        if self.indicator_labels is None:
            self.indicator_labels = [f"I{j + 1}" for j in range(m)]
        elif len(self.indicator_labels) != m:
            raise ValidationError(f"expected {m} indicator labels")
        self.values = v

    @property
    def shape(self):
        return self.values.shape


@dataclass
class TopsisScores:
    d_plus: np.ndarray
    d_minus: np.ndarray
    s: np.ndarray
    s_normalized: np.ndarray
    ranking: list  # alternative indices, best first, ties stable by input order


def forward_column(column, kind: IndicatorKind) -> np.ndarray:
    """Transform one indicator column to benefit orientation.

    Benefit columns pass through, cost columns become max(x) - x, and
    intermediate columns become 1 - |x - x_best| / max|x - x_best|. When every
    entry already equals x_best the column is all ones (equally ideal).
    """
    x = np.asarray(column, dtype=float)
    if x.size == 0:
        raise ValidationError("cannot forward an empty column")
    if not np.all(np.isfinite(x)):
        raise ValidationError("column has non-finite entries")
    if kind.kind == "benefit":
        return x.copy()
    if kind.kind == "cost":
        return x.max() - x
    dev = np.abs(x - kind.x_best)
    m = dev.max()
    if m == 0:
        return np.ones_like(x)
    return 1.0 - dev / m


def forward_matrix(matrix: DecisionMatrix) -> DecisionMatrix:
    """Forward every column; the result is all benefit-kind."""
    cols = [forward_column(matrix.values[:, j], k) for j, k in enumerate(matrix.indicator_kinds)]
    return DecisionMatrix(
        values=np.column_stack(cols),
        alternative_labels=list(matrix.alternative_labels),
        indicator_kinds=[IndicatorKind.benefit()] * matrix.shape[1],
        indicator_labels=list(matrix.indicator_labels),
    )


def normalize(matrix: DecisionMatrix) -> DecisionMatrix:
    """Scale each column by its Euclidean norm: z_ij = x_ij / sqrt(sum_i x_ij^2)."""
    x = matrix.values
    if np.any(x < 0):
        raise ValidationError("normalize expects non-negative (forwarded) entries")
    norms = np.sqrt((x * x).sum(axis=0))
    for j, nrm in enumerate(norms):
        if nrm == 0:
            raise DegenerateColumnError(matrix.indicator_labels[j])
    return DecisionMatrix(
        values=x / norms,
        alternative_labels=list(matrix.alternative_labels),
        indicator_kinds=list(matrix.indicator_kinds),
        indicator_labels=list(matrix.indicator_labels),
    )


def score(matrix: DecisionMatrix, weights=None) -> TopsisScores:
    """Score alternatives by relative closeness to the ideal solution.

    Expects a forwarded and normalized matrix. Distances are Euclidean to the
    per-column max (ideal) and min (anti-ideal); S = D- / (D+ + D-). An
    optional positive weight vector is applied to the normalized columns
    before the distance computation (default uniform).

    Degenerate cases: a single alternative scores S = 1; when all rows are
    identical every alternative scores S = 0.5.
    """
    z = matrix.values
    n, m = z.shape
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValidationError(f"expected {m} weights, got shape {w.shape}")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and > 0")
        z = z * w

    if n == 1:
        s = np.array([1.0])
        return TopsisScores(
            d_plus=np.zeros(1), d_minus=np.zeros(1), s=s, s_normalized=s.copy(), ranking=[0]
        )

    z_plus = z.max(axis=0)
    z_minus = z.min(axis=0)
    d_plus = np.sqrt(((z_plus - z) ** 2).sum(axis=1))
    d_minus = np.sqrt(((z - z_minus) ** 2).sum(axis=1))

    denom = d_plus + d_minus
    s = np.divide(d_minus, denom, out=np.full(n, 0.5), where=denom != 0)
    s_normalized = s / s.sum()
    ranking = [int(i) for i in np.argsort(-s, kind="stable")]
    return TopsisScores(
        d_plus=d_plus, d_minus=d_minus, s=s, s_normalized=s_normalized, ranking=ranking
    )


def rank_alternatives(matrix: DecisionMatrix, weights=None) -> TopsisScores:
    """Full pipeline: forward, normalize, score."""
    return score(normalize(forward_matrix(matrix)), weights=weights)
