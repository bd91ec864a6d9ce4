"""Moment-based distribution discrepancy metrics and a small UDA training
harness built around them."""

from .discrepancy import (
    DiscrepancyReport,
    DwmdConfig,
    cmd,
    cmd_with_gradient,
    dwmd,
    dwmd_from_moments,
    dwmd_gradient,
    dwmd_with_gradient,
    mmd_rbf,
    mmd_rbf_with_gradient,
    smd,
    smd_gradient,
    truncation_bound,
)
from .moments import (
    MomentOverflowError,
    central_moments,
    raw_moments,
    standardize_pooled,
)
from .nettrain import (
    NetworkSpec, TrainConfig, TrainedModel, TrainingDiverged, evaluate, forward, train_uda
)
from .weighting import WeightProfile, robust_dim_means, weight_profile

__all__ = [
    "DiscrepancyReport",
    "DwmdConfig",
    "MomentOverflowError",
    "NetworkSpec",
    "TrainConfig",
    "TrainedModel",
    "TrainingDiverged",
    "WeightProfile",
    "central_moments",
    "cmd",
    "cmd_with_gradient",
    "dwmd",
    "dwmd_from_moments",
    "dwmd_gradient",
    "dwmd_with_gradient",
    "evaluate",
    "forward",
    "mmd_rbf",
    "mmd_rbf_with_gradient",
    "raw_moments",
    "robust_dim_means",
    "smd",
    "smd_gradient",
    "standardize_pooled",
    "train_uda",
    "truncation_bound",
    "weight_profile",
]

__version__ = "0.1.0"
