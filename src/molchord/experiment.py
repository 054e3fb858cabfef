"""Self-contained preference-training experiment.

Uses a deterministic surrogate in place of a docking engine: molecules with
more heavy atoms (up to a cap) get better pseudo-binding scores, penalized
through the usual fused-ring reward. The flow mirrors the real pipeline --
supervised training on synthetic pocket/ligand data, diversity-filtered
curation, best-vs-worst pair construction, one preference epoch -- and then
measures whether sampled molecules actually got better rewards. Pairs come
from ``curation.curate`` in its offline flow, the stage that ``molchord
curate`` runs, with the surrogate in place of the dock command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curation import CurateConfig, curate, reward
from .genmodel import ModelConfig, ModelParams, PocketFeatures, sample_many
from .hashutil import derive_seed
from .molgraph import Molecule, count_fused_rings, parse_smiles, try_parse
from .synthetic import smiles_corpus
from .training import (
    TrainConfig,
    build_dpo_examples,
    build_sft_examples,
    dpo_loss,
    train_dpo,
    train_sft,
)


SURROGATE_HEAVY_CAP = 15
# The settings where the experiment departs from the library defaults
# (``TrainConfig``, ``dpo_loss``, ``CurateConfig``, ``reward``,
# ``smiles_corpus``), which supply all the others: the preference stage's
# step and batch, the corpus molecules' size, and the plain sampling of both
# the curation and the evaluation draws.
DPO_LEARNING_RATE = 3e-3
DPO_BATCH_SIZE = 8
MAX_HEAVY = 8
TEMPERATURE = 1.0
TOP_P = 1.0


def surrogate_vina(mol: Molecule) -> float:
    """Deterministic pseudo-binding score: heavier molecules bind better,
    saturating at the cap. Lower is better, like a docking energy."""
    return -float(min(mol.heavy_atom_count(), SURROGATE_HEAVY_CAP))


def surrogate_scores(
    requests: list[tuple[str, str]],
) -> tuple[list[tuple[str, str, float]], list]:
    """``build_pair_set`` scorer: the surrogate score of every molecule, no failures."""
    return [(p, s, surrogate_vina(parse_smiles(s))) for p, s in requests], []


@dataclass(frozen=True)
class ExperimentConfig:
    n_pockets: int = 200
    corpus_size: int = 10_000
    sft_pockets: int = 500
    held_out_pairs: int = 50
    eval_samples: int = 100
    filter_samples: int = 100
    diversity_threshold: float = 0.8
    sft_steps: int = 1500
    d: int = 32
    d_feat: int = 32
    window: int = 8
    n_struct: int = 4
    max_len: int = 48
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


def _mean_reward(texts: list[str]) -> float | None:
    """Mean reward under the surrogate score of the texts that parse."""
    mols = [mol for mol in map(try_parse, texts) if mol is not None]
    rewards = [reward(surrogate_vina(mol), count_fused_rings(mol)) for mol in mols]
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
    corpus = smiles_corpus(cfg.corpus_size, seed=cfg.seed, max_heavy=MAX_HEAVY)
    per_pocket = max(1, cfg.corpus_size // cfg.sft_pockets)
    sft_features: dict[str, PocketFeatures] = {}
    sft_ligands: dict[str, list[str]] = {}
    for i in range(cfg.sft_pockets):
        pocket_id = f"sft{i:05d}"
        sft_features[pocket_id] = model_cfg.featurize(pocket_id)
        sft_ligands[pocket_id] = corpus[i * per_pocket : (i + 1) * per_pocket]
    examples = build_sft_examples(sft_features, sft_ligands, vocab, seed=cfg.seed)
    sft_config = TrainConfig(
        steps=cfg.sft_steps, seed=cfg.seed, eval_interval=max(1, cfg.sft_steps // 10)
    )
    sft_checkpoint, sft_curve = train_sft(examples, model_cfg, sft_config)

    # --- curation and pairs under the surrogate score on fresh pockets ------
    pref_features = {
        pocket_id: model_cfg.featurize(pocket_id)
        for pocket_id in (f"pref{i:05d}" for i in range(cfg.n_pockets))
    }
    pref_ids = sorted(pref_features)

    def draw(params: ModelParams, label: str, n: int) -> dict[str, list[str]]:
        """The texts of n draws for every pocket, stepped together."""
        results = sample_many(params, [pref_features[p] for p in pref_ids], vocab, n,
                              base_seed=derive_seed(label, cfg.seed), temperature=TEMPERATURE,
                              top_p=TOP_P, max_len=cfg.max_len)
        return {p: [r.text for r in draws] for p, draws in zip(pref_ids, results)}

    # The offline flow pairs the very draws that the diversity filter saw, so
    # both phases get the same draws and each pocket is sampled once.
    filter_texts = draw(sft_checkpoint.params, "experiment-curate", cfg.filter_samples)

    def drawn(pocket_ids: list[str], n: int) -> list[list[str]]:
        return [filter_texts[p] for p in pocket_ids]

    curated, pairs, _ = curate(
        pref_ids,
        drawn,
        drawn,
        surrogate_scores,
        CurateConfig(
            filter_samples=cfg.filter_samples,
            diversity_threshold=cfg.diversity_threshold,
            flow="offline",
        ),
    )
    if len(pairs) <= cfg.held_out_pairs:
        raise ValueError(
            f"curation made {len(pairs)} preference pairs and held_out_pairs is "
            f"{cfg.held_out_pairs}: no pair is left to train on"
        )

    order = np.random.default_rng(derive_seed("experiment-split", cfg.seed)).permutation(len(pairs))
    held_out = [pairs[i] for i in order[: cfg.held_out_pairs]]
    train_pairs = [pairs[i] for i in order[cfg.held_out_pairs :]]

    dpo_examples = build_dpo_examples(
        train_pairs, pref_features, sft_checkpoint.params, vocab, seed=cfg.seed
    )
    dpo_config = TrainConfig(
        learning_rate=DPO_LEARNING_RATE, batch_size=DPO_BATCH_SIZE, seed=cfg.seed
    )
    dpo_checkpoint, _ = train_dpo(dpo_examples, sft_checkpoint.params, dpo_config)

    # --- measurement ----------------------------------------------------------
    held_examples = build_dpo_examples(
        held_out, pref_features, sft_checkpoint.params, vocab, seed=cfg.seed
    )
    margins = [
        dpo_loss(dpo_checkpoint.params, ex, vocab, compute_grads=False)[2]
        for ex in held_examples
    ]

    sft_means: dict[str, float] = {}
    dpo_means: dict[str, float] = {}
    improved = 0
    before_texts = draw(sft_checkpoint.params, "experiment-eval", cfg.eval_samples)
    after_texts = draw(dpo_checkpoint.params, "experiment-eval", cfg.eval_samples)
    for pocket_id in pref_ids:
        before = _mean_reward(before_texts[pocket_id])
        after = _mean_reward(after_texts[pocket_id])
        if before is None or after is None:
            continue  # counts as not improved
        sft_means[pocket_id] = before
        dpo_means[pocket_id] = after
        if after > before:
            improved += 1

    return ExperimentResult(
        fraction_improved=improved / len(pref_ids) if pref_ids else 0.0,
        mean_margin_held_out=float(np.mean(margins)) if margins else 0.0,
        n_pairs_train=len(train_pairs),
        n_pairs_held_out=len(held_out),
        n_selected_pockets=len(curated.selected),
        sft_mean_rewards=sft_means,
        dpo_mean_rewards=dpo_means,
        sft_val_start=sft_curve[0]["val_loss"],
        sft_val_best=sft_checkpoint.val_loss,
    )
