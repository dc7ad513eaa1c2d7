"""Test-time generative augmentation toolkit.

Diffusion sampling and inversion over plain float64 grids, one-step
null-text optimization, masked dual-path generation, and a synthetic
segmentation benchmark with ensemble-entropy error estimation.
"""

import os

# One BLAS thread unless the caller set otherwise, before numpy loads: every
# matrix product here is small, so one thread sums in the same order on every
# machine, and a busy second core no longer slows each product.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .denoiser import (
    AnalyticGaussianDenoiser,
    ConditionEmbedding,
    ConvDenoiser,
    DenoiserTrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_toy_denoiser,
)
from .engine import (
    AugmentationSet,
    EnsembleResult,
    TtgaConfig,
    ensemble,
    error_estimate_map,
    generate_one,
    generate_set,
)
from .guidance import GuidanceConfig, cfg_multi, cfg_single
from .masks import MaskPair, MaskPolicy, attention_mask, bernoulli_mask, hybrid_mask
from .nulltext import NullOptConfig, OptimizedNull, one_step_reconstruct, optimize_null_text
from .optim import AdamState, adam_step
from .rng import SeededRng
from .sampler import InversionTrajectory, ddim_invert, ddim_step
from .schedule import NoiseSchedule, build_schedule, from_xbar, to_xbar

__all__ = [
    "AnalyticGaussianDenoiser",
    "AdamState",
    "AugmentationSet",
    "ConditionEmbedding",
    "ConvDenoiser",
    "DenoiserTrainConfig",
    "EnsembleResult",
    "GuidanceConfig",
    "InversionTrajectory",
    "MaskPair",
    "MaskPolicy",
    "NoiseSchedule",
    "NullOptConfig",
    "OptimizedNull",
    "SeededRng",
    "TtgaConfig",
    "adam_step",
    "attention_mask",
    "bernoulli_mask",
    "build_schedule",
    "cfg_multi",
    "cfg_single",
    "ddim_invert",
    "ddim_step",
    "ensemble",
    "error_estimate_map",
    "from_xbar",
    "generate_one",
    "generate_set",
    "hybrid_mask",
    "load_checkpoint",
    "one_step_reconstruct",
    "optimize_null_text",
    "save_checkpoint",
    "to_xbar",
    "train_toy_denoiser",
]

__version__ = "0.1.0"
