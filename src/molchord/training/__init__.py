"""Losses, exact gradients, gradient verification, and training loops."""

from .gradcheck import NonDeterministicLoss, grad_check
from .losses import (
    DEFAULT_BETA_DPO,
    DEFAULT_BETA_VAE,
    DpoExample,
    EmptyBatch,
    SftAux,
    SftExample,
    dpo_loss,
    kl_gaussian,
    kl_gaussian_grads,
    sft_loss,
)
from .loops import (
    Checkpoint,
    TrainConfig,
    build_dpo_examples,
    build_sft_examples,
    is_validation_pocket,
    train_dpo,
    train_sft,
)
from .optim import AdamState, adam_step, clip_gradients, global_norm

__all__ = [
    "AdamState",
    "Checkpoint",
    "DEFAULT_BETA_DPO",
    "DEFAULT_BETA_VAE",
    "DpoExample",
    "EmptyBatch",
    "NonDeterministicLoss",
    "SftAux",
    "SftExample",
    "TrainConfig",
    "adam_step",
    "build_dpo_examples",
    "build_sft_examples",
    "clip_gradients",
    "dpo_loss",
    "global_norm",
    "grad_check",
    "is_validation_pocket",
    "kl_gaussian",
    "kl_gaussian_grads",
    "sft_loss",
    "train_dpo",
    "train_sft",
]
