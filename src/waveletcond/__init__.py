"""Wavelet-domain audio conditioning for a toy denoising-diffusion harness.

Subpackages: tensor (autodiff core), wavelet (2-D Haar transform), msm
(spectral conditioning of audio embeddings), sfm (sub-band feature filter),
diffusion/training (toy DDPM harness), metrics (video/motion evaluation),
datakit (clip manifests), cli (command-line surface).
"""

from .diffusion import (
    DivergenceError,
    NoiseSchedule,
    TrainConfig,
    forward_diffuse,
    init_model_params,
    linear_schedule,
    sample,
    unet_forward,
)
from .msm import init_msm_params, msm_forward
from .sfm import init_sfm_params, sfm_forward
from .tensor import Tensor, adam_step
from .training import ablate, make_synthetic_dataset, train, train_loss
from .wavelet import dwt2, idwt2

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "NoiseSchedule",
    "Tensor",
    "TrainConfig",
    "ablate",
    "adam_step",
    "dwt2",
    "forward_diffuse",
    "idwt2",
    "init_model_params",
    "init_msm_params",
    "init_sfm_params",
    "linear_schedule",
    "make_synthetic_dataset",
    "msm_forward",
    "sample",
    "sfm_forward",
    "train",
    "train_loss",
    "unet_forward",
]
