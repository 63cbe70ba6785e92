"""Decision-analysis toolkit: AHP weighting, TOPSIS ranking, a global equity
index, a t-curve mining-revenue model with poverty-weighted allocation,
correlation testing and backprop-based sensitivity analysis."""

from .allocation import AllocationResult, PovertyPolicy, allocate, poverty_multipliers
from .equity import (
    DEFAULT_SCORE_WEIGHTS,
    IndicatorVector,
    country_score,
    global_equity_index,
)
from .errors import (
    ConvergenceError,
    DegenerateColumnError,
    EquimineError,
    ParseError,
    PipelineError,
    SingularityError,
    TrainingError,
    ValidationError,
)
from .mcda import (
    DEFAULT_RI_TABLE,
    ConsistencyReport,
    PairwiseMatrix,
    WeightVector,
    consistency,
    consistency_from_lambda,
    derive_weights,
)
from .mining import MiningCurveParams, RevenueWindow, extraction_rate, income, profit
from .pipeline import RunConfig, load_run_config, run_pipeline
from .sensnet import (
    BackwardTrace,
    ForwardTrace,
    LayerSpec,
    NetworkParams,
    TrainConfig,
    backward,
    forward,
    sensitivity_sweep,
    train,
)
from .stats import CorrelationResult, classify_strength, pearson, t_test
from .topsis import (
    DecisionMatrix,
    IndicatorKind,
    TopsisScores,
    normalize,
    rank_alternatives,
    score,
)

__version__ = "0.1.0"
