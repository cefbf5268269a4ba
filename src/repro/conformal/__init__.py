"""Conformal uncertainty quantification (Sec 3.5).

One-sided split conformal regression, conformalized quantile regression
with the paper's optimal-quantile-choice selection, per-interference-
degree calibration pools, and a vectorized margin engine with robust
modes (recency-weighted, MNAR inverse-propensity).
"""

from .margins import (
    MARGIN_MODES,
    MarginEstimator,
    MarginParams,
    PoolIndex,
    make_estimator,
    margin_offsets_by_pool,
    propensity_weights,
    recency_weights,
)
from .predictor import (
    ConformalRuntimePredictor,
    HeadChoice,
    HeadOffsetTable,
    calibration_pools,
    interference_pools,
)
from .split import conformal_offset, conformal_offsets_by_pool

__all__ = [
    "MARGIN_MODES",
    "ConformalRuntimePredictor",
    "HeadChoice",
    "HeadOffsetTable",
    "MarginEstimator",
    "MarginParams",
    "PoolIndex",
    "conformal_offset",
    "conformal_offsets_by_pool",
    "calibration_pools",
    "interference_pools",
    "make_estimator",
    "margin_offsets_by_pool",
    "propensity_weights",
    "recency_weights",
]
