"""Pitot core: linear-scaling baseline, two-tower model, trainer."""

from .config import PAPER_QUANTILES, PitotConfig, TrainerConfig
from .model import (
    EmbeddingSnapshot,
    PitotModel,
    SparseBatchPlan,
    plan_sparse_batch,
    standardize_features,
)
from .scaling import LinearScalingBaseline
from .serialization import load_model, save_model
from .trainer import PitotTrainer, TrainingResult, choose_sparse, train_pitot

__all__ = [
    "PitotConfig",
    "TrainerConfig",
    "PAPER_QUANTILES",
    "PitotModel",
    "EmbeddingSnapshot",
    "SparseBatchPlan",
    "plan_sparse_batch",
    "standardize_features",
    "LinearScalingBaseline",
    "save_model",
    "load_model",
    "PitotTrainer",
    "TrainingResult",
    "train_pitot",
    "choose_sparse",
]
