"""Split one profit pool across countries by score share with a poverty boost."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, as_integer

ALLOC_MODES = ("conserve", "paper-literal")
DEFAULT_ALLOC_MODE = "conserve"


@dataclass
class PovertyPolicy:
    """Boost policy: the bottom `bottom_count` countries by GDP get `multiplier`."""

    bottom_count: int = 20
    multiplier: float = 1.2

    def __post_init__(self):
        self.bottom_count = as_integer(self.bottom_count, "bottom_count")
        if self.bottom_count < 1:
            raise ValidationError("bottom_count must be positive")
        if not 1 <= self.multiplier < math.inf:
            raise ValidationError("multiplier must be finite and >= 1")


@dataclass
class CountryShare:
    label: str
    gamma: float
    raw_share: float
    conserved_share: float


@dataclass
class AllocationResult:
    shares: list  # of CountryShare, input order preserved
    total_profit: float
    over_allocation: float = field(init=False)

    def __post_init__(self):
        self.over_allocation = sum(s.raw_share for s in self.shares) - self.total_profit


def poverty_multipliers(gdp: dict, policy: PovertyPolicy) -> dict:
    """Per-country multiplier: policy.multiplier for the bottom GDP group, else 1.0.

    Ties at the cutoff break by label lexicographic order so the bottom set is
    deterministic.
    """
    labels = list(gdp)
    if policy.bottom_count > len(labels):
        raise ValidationError(
            f"bottom_count {policy.bottom_count} exceeds {len(labels)} countries"
        )
    for label, value in gdp.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"GDP for {label!r} must be finite and >= 0")
    poorest = sorted(labels, key=lambda c: (gdp[c], c))[: policy.bottom_count]
    poorest = set(poorest)
    return {c: (policy.multiplier if c in poorest else 1.0) for c in labels}


def allocate(total_profit: float, scores: dict, gammas: dict,
             mode: str = DEFAULT_ALLOC_MODE) -> AllocationResult:
    """Allocate total_profit across countries.

    raw_share_k = gamma_k * total_profit * score_k / sum(scores); those raw
    shares generally over-allocate whenever any gamma > 1. "conserve" mode
    rescales by gamma_k * score_k / sum_j(gamma_j * score_j) so the shares sum
    exactly to total_profit; "paper-literal" keeps the raw shares and reports
    the over-allocation. Shares that overflow the float range raise
    ValidationError naming the multiplier.
    """
    if mode not in ALLOC_MODES:
        raise ValidationError(f"unknown allocation mode {mode!r}")
    if total_profit < 0:
        raise ValidationError("total_profit must be >= 0")
    labels = list(scores)
    if set(gammas) != set(labels):
        raise ValidationError("scores and gammas must cover the same countries")
    s = np.array([scores[c] for c in labels], dtype=float)
    g = np.array([gammas[c] for c in labels], dtype=float)
    if np.any(s < 0):
        raise ValidationError("scores must be >= 0")
    s_sum = s.sum()
    if s_sum <= 0:
        raise ValidationError("score sum must be positive")

    with np.errstate(over="ignore", invalid="ignore"):
        raw = g * total_profit * s / s_sum
        conserved = total_profit * (g * s) / (g * s).sum()
    if not (np.isfinite(raw).all() and np.isfinite(conserved).all()):
        raise ValidationError(f"shares overflow the float range: multiplier up to {g.max():g} "
                              f"on total_profit {total_profit:g}")
    shares = [
        CountryShare(label=c, gamma=float(g[i]), raw_share=float(raw[i]),
                     conserved_share=float(conserved[i]))
        for i, c in enumerate(labels)
    ]
    return AllocationResult(shares=shares, total_profit=total_profit)
