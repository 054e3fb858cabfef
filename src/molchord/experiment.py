"""Self-contained preference-training experiment.

Uses a deterministic surrogate in place of a docking engine: molecules with
more heavy atoms (up to a cap) get better pseudo-binding scores, penalized
through the usual fused-ring reward. The flow mirrors the real pipeline --
supervised training on synthetic pocket/ligand data, diversity-filtered
curation, best-vs-worst pair construction, one preference epoch -- and then
measures whether sampled molecules actually got better rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curation import (
    PreferencePair,
    ScoredMolecule,
    build_preference_pairs,
    curate_dpo_set,
    reward,
)
from .genmodel import (
    ModelConfig,
    PocketFeatures,
    featurize_pocket,
    sample_many,
)
from .hashutil import derive_seed
from .molgraph import count_fused_rings, try_parse
from .scorers import surrogate_vina
from .synthetic import smiles_corpus
from .training import (
    Checkpoint,
    TrainConfig,
    build_dpo_examples,
    build_sft_examples,
    dpo_loss,
    train_dpo,
    train_sft,
)


def surrogate_reward(smiles: str, fused_penalty: float) -> float | None:
    """Reward under the surrogate score; None for unparseable strings."""
    mol = try_parse(smiles)
    if mol is None:
        return None
    return reward(surrogate_vina(mol), count_fused_rings(mol), fused_penalty)


@dataclass(frozen=True)
class ExperimentConfig:
    n_pockets: int = 200
    corpus_size: int = 10_000
    sft_pockets: int = 500
    held_out_pairs: int = 50
    eval_samples: int = 100
    filter_samples: int = 100
    diversity_threshold: float = 0.8
    fused_penalty: float = 0.5
    sft_steps: int = 1500
    sft_lr: float = 1e-3
    sft_batch: int = 16
    dpo_lr: float = 3e-3
    dpo_batch: int = 8
    beta_dpo: float = 0.1
    beta_vae: float = 0.1
    d: int = 32
    d_feat: int = 32
    window: int = 8
    n_struct: int = 4
    max_len: int = 48
    eval_temperature: float = 1.0
    eval_top_p: float = 1.0
    min_heavy: int = 3
    max_heavy: int = 8
    seed: int = 0


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    fraction_improved: float
    mean_margin_held_out: float
    n_pairs_train: int
    n_pairs_held_out: int
    n_selected_pockets: int
    sft_mean_rewards: dict[str, float]
    dpo_mean_rewards: dict[str, float]
    sft_val_start: float
    sft_val_best: float
    sft_checkpoint: Checkpoint = field(repr=False)
    dpo_checkpoint: Checkpoint = field(repr=False)


def _mean_sample_reward(
    params, feats: PocketFeatures, vocab, cfg: ExperimentConfig, base_seed: int
) -> float | None:
    results = sample_many(
        params,
        feats,
        vocab,
        cfg.eval_samples,
        base_seed=base_seed,
        temperature=cfg.eval_temperature,
        top_p=cfg.eval_top_p,
        max_len=cfg.max_len,
    )
    rewards = [
        r for r in (surrogate_reward(res.text, cfg.fused_penalty) for res in results)
        if r is not None
    ]
    return float(np.mean(rewards)) if rewards else None


def run_preference_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    model_cfg = ModelConfig(
        d=cfg.d,
        d_feat=cfg.d_feat,
        window=cfg.window,
        n_struct_tokens=cfg.n_struct,
        seed=cfg.seed,
    )
    vocab = model_cfg.vocabulary()

    # --- supervised stage on synthetic pocket/ligand pairs ------------------
    corpus = smiles_corpus(cfg.corpus_size, seed=cfg.seed, min_heavy=cfg.min_heavy,
                           max_heavy=cfg.max_heavy)
    per_pocket = max(1, cfg.corpus_size // cfg.sft_pockets)
    sft_features: dict[str, PocketFeatures] = {}
    sft_ligands: dict[str, list[str]] = {}
    for i in range(cfg.sft_pockets):
        pocket_id = f"sft{i:05d}"
        sft_features[pocket_id] = featurize_pocket(
            pocket_id, cfg.d_feat, cfg.seed, n_struct_tokens=cfg.n_struct
        )
        sft_ligands[pocket_id] = corpus[i * per_pocket : (i + 1) * per_pocket]
    examples = build_sft_examples(sft_features, sft_ligands, vocab, seed=cfg.seed)
    sft_config = TrainConfig(
        learning_rate=cfg.sft_lr,
        batch_size=cfg.sft_batch,
        steps=cfg.sft_steps,
        beta_vae=cfg.beta_vae,
        seed=cfg.seed,
        eval_interval=max(1, cfg.sft_steps // 10),
    )
    sft_checkpoint, sft_curve = train_sft(examples, model_cfg, sft_config)

    # --- curation on fresh preference pockets -------------------------------
    pref_features = {
        f"pref{i:05d}": featurize_pocket(
            f"pref{i:05d}", cfg.d_feat, cfg.seed, n_struct_tokens=cfg.n_struct
        )
        for i in range(cfg.n_pockets)
    }

    def sampler(pocket_id: str, n: int) -> list[str]:
        results = sample_many(
            sft_checkpoint.params,
            pref_features[pocket_id],
            vocab,
            n,
            base_seed=derive_seed("experiment-curate", cfg.seed),
            temperature=cfg.eval_temperature,
            top_p=cfg.eval_top_p,
            max_len=cfg.max_len,
        )
        return [r.text for r in results]

    curated = curate_dpo_set(
        sorted(pref_features),
        sampler,
        n_samples=cfg.filter_samples,
        threshold=cfg.diversity_threshold,
    )

    # --- pair construction under the surrogate score -------------------------
    pairs: list[PreferencePair] = []
    for pocket_id in curated.selected:
        scored: list[ScoredMolecule] = []
        for smiles in sampler(pocket_id, cfg.filter_samples):
            mol = try_parse(smiles)
            if mol is None:
                continue
            scored.append(
                ScoredMolecule(
                    smiles=smiles,
                    vina=surrogate_vina(mol),
                    fused_count=count_fused_rings(mol),
                )
            )
        if len({s.smiles for s in scored}) < 2:
            continue
        pairs.append(build_preference_pairs(pocket_id, scored, lam=cfg.fused_penalty))

    order = np.random.default_rng(derive_seed("experiment-split", cfg.seed)).permutation(len(pairs))
    held_out = [pairs[i] for i in order[: cfg.held_out_pairs]]
    train_pairs = [pairs[i] for i in order[cfg.held_out_pairs :]]

    dpo_examples = build_dpo_examples(
        train_pairs, pref_features, sft_checkpoint.params, vocab, seed=cfg.seed
    )
    dpo_config = TrainConfig(
        learning_rate=cfg.dpo_lr,
        batch_size=cfg.dpo_batch,
        epochs=1,
        beta_dpo=cfg.beta_dpo,
        beta_vae=cfg.beta_vae,
        seed=cfg.seed,
    )
    dpo_checkpoint, _ = train_dpo(dpo_examples, sft_checkpoint, dpo_config)

    # --- measurement ----------------------------------------------------------
    held_examples = build_dpo_examples(
        held_out, pref_features, sft_checkpoint.params, vocab, seed=cfg.seed
    )
    margins = [
        dpo_loss(
            dpo_checkpoint.params,
            sft_checkpoint.params,
            ex,
            vocab,
            beta_dpo=cfg.beta_dpo,
            beta_vae=cfg.beta_vae,
        )[2]
        for ex in held_examples
    ]

    sft_means: dict[str, float] = {}
    dpo_means: dict[str, float] = {}
    improved = 0
    counted = 0
    eval_seed = derive_seed("experiment-eval", cfg.seed)
    for pocket_id in sorted(pref_features):
        before = _mean_sample_reward(
            sft_checkpoint.params, pref_features[pocket_id], vocab, cfg, eval_seed
        )
        after = _mean_sample_reward(
            dpo_checkpoint.params, pref_features[pocket_id], vocab, cfg, eval_seed
        )
        counted += 1
        if before is None or after is None:
            continue  # counts as not improved
        sft_means[pocket_id] = before
        dpo_means[pocket_id] = after
        if after > before:
            improved += 1

    return ExperimentResult(
        fraction_improved=improved / counted if counted else 0.0,
        mean_margin_held_out=float(np.mean(margins)) if margins else 0.0,
        n_pairs_train=len(train_pairs),
        n_pairs_held_out=len(held_out),
        n_selected_pockets=len(curated.selected),
        sft_mean_rewards=sft_means,
        dpo_mean_rewards=dpo_means,
        sft_val_start=sft_curve[0]["val_loss"],
        sft_val_best=sft_checkpoint.val_loss,
        sft_checkpoint=sft_checkpoint,
        dpo_checkpoint=dpo_checkpoint,
    )
