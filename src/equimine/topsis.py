"""TOPSIS ranking: indicator forwarding, vector normalization, closeness scores.

A DecisionMatrix checks its values, labels and kinds once, when it is built;
`forward`, `normalize` and `score` then pass plain arrays."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_labels

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
    def intermediate(cls, x_best: float):
        return cls("intermediate", float(x_best))

    @classmethod
    def parse(cls, text: str):
        """Parse a header annotation: 'benefit', 'cost' or 'mid=<x_best>'."""
        if not text.startswith("mid="):
            return cls(text)
        try:
            x_best = float(text[4:])
        except ValueError:
            raise ValidationError(f"bad optimum in kind annotation {text!r}") from None
        return cls.intermediate(x_best)


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
        check_labels(self.alternative_labels, n, "alternative")
        if len(self.indicator_kinds) != m:
            raise ValidationError(f"expected {m} indicator kinds")
        if self.indicator_labels is None:
            self.indicator_labels = [f"I{j + 1}" for j in range(m)]
        check_labels(self.indicator_labels, m, "indicator")
        self.values = v


@dataclass
class TopsisScores:
    d_plus: np.ndarray
    d_minus: np.ndarray
    s: np.ndarray
    s_normalized: np.ndarray
    ranking: list  # alternative indices, best first, ties stable by input order


def forward(matrix: DecisionMatrix) -> np.ndarray:
    """The matrix's values with every column in benefit orientation.

    Benefit columns pass through, cost columns become max(x) - x, and
    intermediate columns become 1 - |x - x_best| / max|x - x_best|. When every
    entry already equals x_best the column is all ones (equally ideal). A
    column whose forwarded values overflow the float range is rejected.
    """
    x = matrix.values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j, kind in enumerate(matrix.indicator_kinds):
            column = x[:, j]
            if kind.kind == "cost":
                x[:, j] = column.max() - column
            elif kind.kind == "intermediate":
                dev = np.abs(column - kind.x_best)
                m = dev.max()
                x[:, j] = 1.0 if m == 0 else 1.0 - dev / m
    overflowed = ~np.isfinite(x).all(axis=0)
    if overflowed.any():
        label = matrix.indicator_labels[overflowed.argmax()]
        raise ValidationError(f"indicator {label!r} overflows the float range when forwarded")
    return x


def normalize(x: np.ndarray, labels) -> np.ndarray:
    """Scale each column by its Euclidean norm: z_ij = x_ij / sqrt(sum_i x_ij^2).

    `labels` names the columns; an all-zero column, or one whose norm overflows
    the float range, raises ValidationError naming the first such label.
    """
    if np.any(x < 0):
        raise ValidationError("normalize expects non-negative (forwarded) entries")
    with np.errstate(over="ignore"):
        norms = np.sqrt((x * x).sum(axis=0))
    if (overflowed := np.isinf(norms)).any():
        raise ValidationError(f"indicator {labels[overflowed.argmax()]!r}: norm overflows the "
                              "float range")
    if not norms.all():
        raise ValidationError(f"indicator {labels[(norms == 0).argmax()]!r}: column is all zeros")
    return x / norms


def score(z: np.ndarray, weights=None) -> TopsisScores:
    """Score alternatives by relative closeness to the ideal solution.

    Expects forwarded and normalized values, alternatives by indicators.
    Distances are Euclidean to the per-column max (ideal) and min
    (anti-ideal); S = D- / (D+ + D-). An optional positive weight vector is
    applied to the normalized columns before the distance computation
    (default uniform).

    Degenerate cases: a single alternative scores S = 1; when all rows are
    identical every alternative scores S = 0.5.
    """
    n, m = z.shape
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValidationError(f"expected {m} weights, got shape {w.shape}")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and > 0")
        z = z * w

    z_plus = z.max(axis=0)
    z_minus = z.min(axis=0)
    d_plus = np.sqrt(((z_plus - z) ** 2).sum(axis=1))
    d_minus = np.sqrt(((z - z_minus) ** 2).sum(axis=1))

    denom = d_plus + d_minus
    # zero distance to both ideals: S = 1 for a lone alternative, else 0.5
    s = np.divide(d_minus, denom, out=np.full(n, 1.0 if n == 1 else 0.5), where=denom != 0)
    s_normalized = s / s.sum()
    ranking = [int(i) for i in np.argsort(-s, kind="stable")]
    return TopsisScores(
        d_plus=d_plus, d_minus=d_minus, s=s, s_normalized=s_normalized, ranking=ranking
    )


def rank_alternatives(matrix: DecisionMatrix, weights=None) -> TopsisScores:
    """Full pipeline: forward, normalize, score."""
    return score(normalize(forward(matrix), matrix.indicator_labels), weights=weights)
