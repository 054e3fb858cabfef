"""Training objectives and their exact gradients.

Two losses share the packed sequence pass (``sequences_forward`` and
``sequences_backward``); supervised fine-tuning runs one pass over every
sequence of a batch, and the preference loss runs one pass per sequence, as
the reference scoring does, so that a policy equal to the reference gives a
margin of exactly zero:

  * supervised fine-tuning: masked NLL with reparameterized conditioning
    noise plus a weighted closed-form Gaussian KL, gradients for adapter,
    variational head, and predictor;
  * preference: -log sigmoid(beta * margin) on policy/reference log-ratio
    margins between a chosen and a rejected molecule, plus the same weighted
    KL. The conditioning noise is a recorded input of each pair, and the
    frozen reference's two log-probabilities under it are recorded with it
    when the pair is built, so the loss runs only the two policy sequence
    evaluations and stays a deterministic function of the policy parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..genmodel import (
    InterleavedSequence,
    ModelParams,
    Vocabulary,
    sequence_forward,
    sequences_backward,
    sequences_forward,
    vae_backward,
    vae_forward,
)

DEFAULT_BETA_VAE = 0.1
DEFAULT_BETA_DPO = 0.1


class EmptyBatch(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SftExample:
    seq: InterleavedSequence
    complex_vec: np.ndarray

    @property
    def pocket_id(self) -> str:
        return self.seq.features.pocket_id


@dataclass(frozen=True, eq=False)
class DpoExample:
    pocket_id: str
    chosen_seq: InterleavedSequence
    rejected_seq: InterleavedSequence
    complex_vec: np.ndarray
    epsilon: np.ndarray  # recorded conditioning noise, shared policy/reference
    ref_chosen: float  # reference log-probabilities under ``epsilon``
    ref_rejected: float


def kl_gaussian(mu: np.ndarray, log_var: np.ndarray) -> float:
    """KL(N(mu, diag(exp(log_var))) || N(0, I)) in closed form."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    return float(0.5 * np.sum(mu * mu + np.exp(log_var) - log_var - 1.0))


def kl_gaussian_grads(mu: np.ndarray, log_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(mu, dtype=np.float64), 0.5 * (np.exp(np.asarray(log_var)) - 1.0)


@dataclass(frozen=True, eq=False)
class SftAux:
    nll: float
    kl: float
    noises: tuple[np.ndarray, ...]


def sft_loss(
    params: ModelParams,
    batch: list[SftExample],
    vocab: Vocabulary,
    beta_vae: float = DEFAULT_BETA_VAE,
    rng: np.random.Generator | None = None,
    noises: tuple[np.ndarray, ...] | None = None,
    compute_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray], SftAux]:
    """Mean masked NLL under noisy conditioning plus beta_vae * mean KL.

    The standard-normal draws come from ``rng`` and are returned in the aux
    record; pass them back through ``noises`` to re-evaluate the identical
    loss (gradient checks, validation).
    """
    if not batch:
        raise EmptyBatch("empty batch")
    if noises is None:
        if rng is None:
            raise ValueError("sft_loss needs an rng or recorded noises")
        d = params.vae_mu_b.shape[0]
        noises = tuple(rng.standard_normal(d) for _ in batch)
    if len(noises) != len(batch):
        raise ValueError("one noise vector per example required")

    b = len(batch)
    complex_rows = np.stack([ex.complex_vec for ex in batch])
    z = np.stack(noises)
    eps = vae_forward(complex_rows, params, z=z)
    logprobs, cache = sequences_forward(
        params, [ex.seq for ex in batch], vocab, eps.sample, want_cache=compute_grads
    )
    nll_total = -float(logprobs.sum())
    kl_total = kl_gaussian(eps.mu, eps.log_var)
    loss = nll_total / b + beta_vae * kl_total / b
    aux = SftAux(nll=nll_total / b, kl=kl_total / b, noises=noises)
    if not compute_grads:
        return loss, {}, aux

    grads = params.zero_grads()
    d_eps = sequences_backward(cache, params, np.full(b, -1.0 / b), grads)
    kl_mu, kl_lv = kl_gaussian_grads(eps.mu, eps.log_var)
    d_mu = d_eps + (beta_vae / b) * kl_mu
    d_lv = 0.5 * d_eps * np.exp(0.5 * eps.log_var) * z + (beta_vae / b) * kl_lv
    vae_backward(d_mu, d_lv, complex_rows, grads)
    return loss, grads, aux


def _log_sigmoid(x: float) -> float:
    # -softplus(-x), stable on both tails
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def dpo_loss(
    params: ModelParams,
    example: DpoExample,
    vocab: Vocabulary,
    beta_dpo: float = DEFAULT_BETA_DPO,
    beta_vae: float = DEFAULT_BETA_VAE,
    compute_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray], float]:
    """Preference loss for one pair; returns (loss, grads, implied margin).

    The reference log-probabilities are the example's recorded constants;
    gradients flow through the two policy evaluations and, via the KL term,
    the variational head.
    """
    eps = example.epsilon
    ref_chosen, ref_rejected = example.ref_chosen, example.ref_rejected

    lp_chosen, cache_chosen = sequence_forward(params, example.chosen_seq, vocab, epsilon=eps)
    lp_rejected, cache_rejected = sequence_forward(params, example.rejected_seq, vocab, epsilon=eps)

    margin = beta_dpo * ((lp_chosen - ref_chosen) - (lp_rejected - ref_rejected))
    pref_loss = -_log_sigmoid(margin)

    mu = params.vae_mu_w @ example.complex_vec + params.vae_mu_b
    log_var = params.vae_logvar_w @ example.complex_vec + params.vae_logvar_b
    kl = kl_gaussian(mu, log_var)
    loss = pref_loss + beta_vae * kl
    if not compute_grads:
        return loss, {}, margin

    grads = params.zero_grads()
    # d(-log sigmoid(m))/dm = -(1 - sigmoid(m)) = -sigmoid(-m)
    d_margin = -1.0 / (1.0 + math.exp(margin)) if margin < 50 else -math.exp(-margin)
    sequences_backward(cache_chosen, params, [d_margin * beta_dpo], grads)
    sequences_backward(cache_rejected, params, [-d_margin * beta_dpo], grads)

    kl_mu, kl_lv = kl_gaussian_grads(mu, log_var)
    vae_backward(beta_vae * kl_mu[None], beta_vae * kl_lv[None], example.complex_vec[None], grads)
    return loss, grads, margin
