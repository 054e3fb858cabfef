"""Training loops for the supervised and preference stages.

Both loops are single-threaded and fully seeded: batch order, noise draws,
and updates replay identically for a fixed config, so checkpoints are
byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..curation import PreferencePair
from ..genmodel import (
    ModelConfig,
    ModelParams,
    PocketFeatures,
    Vocabulary,
    build_interleaved,
    complex_feature_vector,
    init_params,
    sequence_forward,
    vae_forward,
)
from ..hashutil import derive_seed, stable_hash64
from .losses import DpoExample, EmptyBatch, SftExample, dpo_loss, sft_loss
from .optim import AdamState, adam_step, clip_gradients

DEFAULT_VAL_FRACTION = 0.05


@dataclass(frozen=True)
class TrainConfig:
    """One training stage's settings; field names equal the keys of the
    ``[train_sft]`` / ``[train_dpo]`` config sections."""

    learning_rate: float = 1e-3
    batch_size: int = 16
    steps: int = 500
    epochs: int = 1  # preference stage: passes over the pair set
    beta_vae: float = 0.1
    beta_dpo: float = 0.1
    seed: int = 0
    clip_norm: float = 5.0  # global gradient norm cap; 0 disables clipping
    eval_interval: int = 50

    def __post_init__(self):
        # written as "not >= 0" so that NaN is rejected too
        if not self.learning_rate >= 0:
            raise ValueError("learning rate must be >= 0")
        if not (self.beta_vae >= 0 and self.beta_dpo >= 0):
            raise ValueError("loss weights must be >= 0")


@dataclass(eq=False)
class Checkpoint:
    params: ModelParams
    step: int
    val_loss: float


def is_validation_pocket(pocket_id: str) -> bool:
    """Stable hash split so the holdout never changes across runs."""
    bucket = stable_hash64("validation-split", pocket_id) % 10_000
    return bucket < int(DEFAULT_VAL_FRACTION * 10_000)


def build_sft_examples(
    pocket_features: dict[str, PocketFeatures],
    pocket_ligands: dict[str, list[str]],
    vocab: Vocabulary,
    seed: int,
) -> list[SftExample]:
    """One example per (pocket, ligand) with pooled pocket+ligand features for
    the variational head."""
    examples: list[SftExample] = []
    for pocket_id in sorted(pocket_ligands):
        feats = pocket_features[pocket_id]
        for smiles in pocket_ligands[pocket_id]:
            seq = build_interleaved(feats, vocab.encode(smiles), vocab)
            examples.append(
                SftExample(seq=seq, complex_vec=complex_feature_vector(feats, smiles, seed))
            )
    return examples


def build_dpo_examples(
    pairs: list[PreferencePair],
    pocket_features: dict[str, PocketFeatures],
    ref_params: ModelParams,
    vocab: Vocabulary,
    seed: int,
) -> list[DpoExample]:
    """Attach features, one recorded noise draw and the reference's
    log-probabilities per pair.

    The noise is reparameterized through the frozen reference's variational
    head with a per-pocket seeded standard-normal draw, then treated as a
    constant input by the preference loss; the reference scores each side
    under that noise once, here, and the loss reads the two constants.
    """
    examples: list[DpoExample] = []
    for pair in pairs:
        feats = pocket_features[pair.pocket_id]
        complex_vec = complex_feature_vector(feats, pair.chosen, seed)
        rng = np.random.default_rng(derive_seed("dpo-noise", seed, pair.pocket_id))
        eps = vae_forward(complex_vec, ref_params, rng=rng).sample
        chosen_seq, rejected_seq = (
            build_interleaved(feats, vocab.encode(smiles), vocab)
            for smiles in (pair.chosen, pair.rejected)
        )
        examples.append(
            DpoExample(
                pocket_id=pair.pocket_id,
                chosen_seq=chosen_seq,
                rejected_seq=rejected_seq,
                complex_vec=complex_vec,
                epsilon=eps,
                ref_chosen=sequence_forward(ref_params, chosen_seq, vocab, epsilon=eps)[0],
                ref_rejected=sequence_forward(ref_params, rejected_seq, vocab, epsilon=eps)[0],
            )
        )
    return examples


def _make_stepper(config: TrainConfig):
    state = AdamState()

    def step(params, grads):
        clip_gradients(grads, config.clip_norm)
        adam_step(params, grads, state, config.learning_rate)

    return step


def _validation_loss(
    params: ModelParams, examples: list[SftExample], vocab: Vocabulary, beta_vae: float
) -> float:
    """Deterministic validation objective: noise at the posterior mean (z = 0)."""
    d = params.vae_mu_b.shape[0]
    zeros = tuple(np.zeros(d) for _ in examples)
    loss, _, _ = sft_loss(
        params, examples, vocab, beta_vae=beta_vae, noises=zeros, compute_grads=False
    )
    return loss


def train_sft(
    examples: list[SftExample],
    model_config: ModelConfig,
    config: TrainConfig,
) -> tuple[Checkpoint, list[dict]]:
    """Supervised stage; keeps the parameters with the lowest validation loss."""
    if not examples:
        raise EmptyBatch("no training examples")
    vocab = model_config.vocabulary()
    params = init_params(model_config)

    val = [ex for ex in examples if is_validation_pocket(ex.pocket_id)]
    train = [ex for ex in examples if not is_validation_pocket(ex.pocket_id)]
    if not train:
        train, val = val, []
    if not val:  # tiny datasets: reuse a slice of train as a watch set
        val = train[: max(1, len(train) // 20)]

    stepper = _make_stepper(config)
    rng = np.random.default_rng(derive_seed("sft-train", config.seed))
    curve: list[dict] = []

    best_val = _validation_loss(params, val, vocab, config.beta_vae)
    best_params = params.copy()
    best_step = 0
    curve.append({"step": 0, "loss": None, "val_loss": best_val, "margin": None})

    for step_idx in range(1, config.steps + 1):
        size = min(config.batch_size, len(train))
        batch_idx = rng.choice(len(train), size=size, replace=False)
        batch = [train[i] for i in batch_idx]
        loss, grads, _ = sft_loss(params, batch, vocab, beta_vae=config.beta_vae, rng=rng)
        stepper(params, grads)
        if step_idx % config.eval_interval == 0 or step_idx == config.steps:
            val_loss = _validation_loss(params, val, vocab, config.beta_vae)
            curve.append({"step": step_idx, "loss": loss, "val_loss": val_loss, "margin": None})
            if val_loss < best_val:
                best_val = val_loss
                best_params = params.copy()
                best_step = step_idx

    return Checkpoint(params=best_params, step=best_step, val_loss=best_val), curve


def train_dpo(
    examples: list[DpoExample],
    ref_params: ModelParams,
    config: TrainConfig,
) -> tuple[Checkpoint, list[dict]]:
    """Preference stage from the frozen reference (the supervised parameters),
    whose log-probabilities the examples already carry: by default a single
    pass so each pair is seen once."""
    if not examples:
        raise EmptyBatch("no preference pairs")
    params = ref_params.copy()
    vocab = params.config.vocabulary()

    stepper = _make_stepper(config)
    rng = np.random.default_rng(derive_seed("dpo-train", config.seed))
    curve: list[dict] = []
    step_idx = 0
    last_loss = 0.0
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[start : start + config.batch_size]]
            grads = params.zero_grads()
            total_loss = 0.0
            margins = []
            for ex in batch:
                loss, ex_grads, margin = dpo_loss(
                    params, ex, vocab, beta_dpo=config.beta_dpo, beta_vae=config.beta_vae
                )
                total_loss += loss
                margins.append(margin)
                grads.flat += ex_grads.flat
            grads.flat /= len(batch)
            stepper(params, grads)
            step_idx += 1
            last_loss = total_loss / len(batch)
            curve.append(
                {
                    "step": step_idx,
                    "loss": last_loss,
                    "val_loss": None,
                    "margin": float(np.mean(margins)),
                }
            )

    return Checkpoint(params=params, step=step_idx, val_loss=last_loss), curve
