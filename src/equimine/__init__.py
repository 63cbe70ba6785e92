"""Decision-analysis toolkit: AHP weighting, TOPSIS ranking, a global equity
index, a t-curve mining-revenue model with poverty-weighted allocation,
correlation testing and backprop-based sensitivity analysis."""

__version__ = "0.1.0"
