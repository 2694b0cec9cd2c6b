"""Convolutional DoA regression: network, optimizer, training, persistence."""

from .adam import AdamHyper, AdamState, adam_step
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .gradcheck import REDUCED_SPEC, GradCheckReport, grad_check
from .network import NetworkSpec, backward, forward, init_params
from .training import (
    ANGLE_SCALE_DEG,
    EpochStats,
    TrainConfig,
    baseband_to_input,
    predict_doa,
    prepare_inputs,
    train,
    training_split,
)

__all__ = [
    "AdamHyper", "AdamState", "adam_step",
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "REDUCED_SPEC", "GradCheckReport", "grad_check",
    "NetworkSpec", "backward", "forward", "init_params",
    "ANGLE_SCALE_DEG", "EpochStats", "TrainConfig", "baseband_to_input",
    "predict_doa", "prepare_inputs", "train", "training_split",
]
