"""Forward and backward passes, written out by hand.

Architecture: per-vector gated adapter over pocket features; a variational
head predicting mean/log-variance of a noise vector added to the pooled
features before the adapter; and a windowed next-token predictor -- two tanh
layers plus an output projection over [k window embeddings || conditioning
vector]. Windows slide over the flattened interleaved sequence (token
embeddings and per-residue adapter outputs alike) and are PAD-padded before
the sequence start.

All gradients here are exact and finite-difference checkable; backward
passes accumulate into plain dicts keyed by parameter field name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interleave import InterleavedSequence
from .params import ADAPTER_FIELDS, ModelParams
from .vocab import Vocabulary


class ShapeMismatch(ValueError):
    pass


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(eq=False)
class AdapterCache:
    x: np.ndarray
    gate: np.ndarray
    up: np.ndarray
    sig: np.ndarray


def adapter_forward(
    x: np.ndarray, params: ModelParams, want_cache: bool = False
) -> np.ndarray | tuple[np.ndarray, AdapterCache]:
    """Gated projection of feature rows: down(sigmoid(gate(x)) * up(x))."""
    squeeze = x.ndim == 1
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if rows.shape[1] != params.adapter_gate_w.shape[1]:
        raise ShapeMismatch(
            f"adapter expects dim {params.adapter_gate_w.shape[1]}, got {rows.shape[1]}"
        )
    gate = rows @ params.adapter_gate_w.T + params.adapter_gate_b
    up = rows @ params.adapter_up_w.T + params.adapter_up_b
    sig = _sigmoid(gate)
    out = (sig * up) @ params.adapter_down_w.T + params.adapter_down_b
    if squeeze:
        out = out[0]
    if want_cache:
        return out, AdapterCache(x=rows, gate=gate, up=up, sig=sig)
    return out


def adapter_backward(
    d_out: np.ndarray,
    cache: AdapterCache,
    params: ModelParams,
    grads: dict[str, np.ndarray] | None,
) -> np.ndarray:
    """Returns the gradient w.r.t. the adapter input rows."""
    d_rows = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
    mid = cache.sig * cache.up
    d_mid = d_rows @ params.adapter_down_w
    d_up = d_mid * cache.sig
    d_gate = d_mid * cache.up * cache.sig * (1.0 - cache.sig)
    if grads is not None:
        if "adapter_down_w" in grads:
            grads["adapter_down_w"] += d_rows.T @ mid
            grads["adapter_down_b"] += d_rows.sum(axis=0)
        if "adapter_gate_w" in grads:
            grads["adapter_gate_w"] += d_gate.T @ cache.x
            grads["adapter_gate_b"] += d_gate.sum(axis=0)
        if "adapter_up_w" in grads:
            grads["adapter_up_w"] += d_up.T @ cache.x
            grads["adapter_up_b"] += d_up.sum(axis=0)
    d_x = d_gate @ params.adapter_gate_w + d_up @ params.adapter_up_w
    return d_x if np.asarray(d_out).ndim > 1 else d_x[0]


@dataclass(frozen=True, eq=False)
class Epsilon:
    """Conditioning noise: mean, log-variance, the standard-normal draw, and
    the reparameterized sample mu + exp(log_var / 2) * z."""

    mu: np.ndarray
    log_var: np.ndarray
    z: np.ndarray
    sample: np.ndarray


def vae_forward(
    complex_vec: np.ndarray,
    params: ModelParams,
    rng: np.random.Generator | None = None,
    z: np.ndarray | None = None,
) -> Epsilon:
    """Reparameterize around the posterior predicted from the complex
    features. At inference the noise is a plain standard-normal draw, which
    the sampler takes from its own stream without this head."""
    complex_vec = np.asarray(complex_vec, dtype=np.float64)
    if complex_vec.shape != (params.vae_mu_w.shape[1],):
        raise ShapeMismatch(f"complex features must have shape ({params.vae_mu_w.shape[1]},)")
    mu = params.vae_mu_w @ complex_vec + params.vae_mu_b
    log_var = params.vae_logvar_w @ complex_vec + params.vae_logvar_b
    if z is None:
        if rng is None:
            raise ValueError("vae_forward needs an rng or a recorded z")
        z = rng.standard_normal(params.vae_mu_b.shape[0])
    sample = mu + np.exp(0.5 * log_var) * z
    return Epsilon(mu=mu, log_var=log_var, z=z, sample=sample)


def _lm_layers(params: ModelParams, x: np.ndarray):
    h1 = np.tanh(x @ params.lm_w1.T + params.lm_b1)
    h2 = np.tanh(h1 @ params.lm_w2.T + params.lm_b2)
    logits = h2 @ params.lm_out_w.T + params.lm_out_b
    return h1, h2, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass(eq=False)
class SequenceCache:
    seq: InterleavedSequence
    embeddings: np.ndarray  # (L, d) flattened interleaved embeddings
    window_idx: np.ndarray  # (T, k) indices into embeddings, -1 for PAD
    x: np.ndarray  # (T, (k+1) d)
    h1: np.ndarray
    h2: np.ndarray
    log_probs: np.ndarray  # (T, V)
    ctx_cache: AdapterCache
    cond_cache: AdapterCache
    logprob: float


def sequence_forward(
    params: ModelParams,
    seq: InterleavedSequence,
    vocab: Vocabulary,
    epsilon: np.ndarray | None = None,
) -> tuple[float, SequenceCache]:
    """Sum of masked next-token log-probabilities for one sequence.

    ``epsilon`` perturbs the pooled features before the conditioning adapter
    pass; None means no perturbation (the pre-variational alignment path).
    """
    cfg = params.config
    k, d = cfg.window, cfg.d
    vocab.check_ids(seq.prefix_ids)
    vocab.check_ids(seq.suffix_ids)
    if not seq.suffix_ids:
        raise ValueError("sequence has no masked positions")
    feats = seq.features
    if feats.vectors.shape[1] != cfg.d_feat:
        raise ShapeMismatch("pocket feature width does not match the model")

    u_ctx, ctx_cache = adapter_forward(feats.vectors, params, want_cache=True)
    cond_in = feats.pooled + (epsilon if epsilon is not None else 0.0)
    u_cond_rows, cond_cache = adapter_forward(cond_in[None, :], params, want_cache=True)
    u_cond = u_cond_rows[0]

    prefix = np.array(seq.prefix_ids, dtype=int)
    suffix = np.array(seq.suffix_ids, dtype=int)
    embeddings = np.concatenate(
        [params.token_embedding[prefix], u_ctx, params.token_embedding[suffix]], axis=0
    )
    m, n_struct, t_len = len(prefix), feats.n_tokens, len(suffix)

    positions = m + n_struct + np.arange(t_len)
    window_idx = positions[:, None] - k + np.arange(k)[None, :]
    pad_row = params.token_embedding[vocab.pad_id]
    gathered = np.where(
        (window_idx >= 0)[:, :, None],
        embeddings[np.clip(window_idx, 0, None)],
        pad_row[None, None, :],
    )
    x = np.concatenate([gathered.reshape(t_len, k * d), np.tile(u_cond, (t_len, 1))], axis=1)
    h1, h2, logits = _lm_layers(params, x)
    log_probs = _log_softmax(logits)
    logprob = float(log_probs[np.arange(t_len), suffix].sum())
    cache = SequenceCache(
        seq=seq,
        embeddings=embeddings,
        window_idx=window_idx,
        x=x,
        h1=h1,
        h2=h2,
        log_probs=log_probs,
        ctx_cache=ctx_cache,
        cond_cache=cond_cache,
        logprob=logprob,
    )
    return logprob, cache


def sequence_backward(
    cache: SequenceCache,
    params: ModelParams,
    coeff: float,
    grads: dict[str, np.ndarray],
    fields: frozenset[str],
) -> np.ndarray:
    """Accumulate d(coeff * logprob)/dtheta for ``fields``.

    Returns the gradient w.r.t. the conditioning perturbation, which callers
    route into the variational head (or drop when the noise is an input).
    """
    cfg = params.config
    k, d = cfg.window, cfg.d
    suffix = np.array(cache.seq.suffix_ids, dtype=int)
    t_len = len(suffix)

    d_logits = -np.exp(cache.log_probs)
    d_logits[np.arange(t_len), suffix] += 1.0
    d_logits *= coeff

    if "lm_out_w" in fields:
        grads["lm_out_w"] += d_logits.T @ cache.h2
        grads["lm_out_b"] += d_logits.sum(axis=0)
    d_h2 = d_logits @ params.lm_out_w
    d_a2 = d_h2 * (1.0 - cache.h2 * cache.h2)
    if "lm_w2" in fields:
        grads["lm_w2"] += d_a2.T @ cache.h1
        grads["lm_b2"] += d_a2.sum(axis=0)
    d_h1 = d_a2 @ params.lm_w2
    d_a1 = d_h1 * (1.0 - cache.h1 * cache.h1)
    if "lm_w1" in fields:
        grads["lm_w1"] += d_a1.T @ cache.x
        grads["lm_b1"] += d_a1.sum(axis=0)
    d_x = d_a1 @ params.lm_w1

    want_adapter = bool(ADAPTER_FIELDS & fields)
    adapter_grads = grads if want_adapter else None

    d_u_cond = d_x[:, k * d :].sum(axis=0)
    d_cond_in = adapter_backward(d_u_cond[None, :], cache.cond_cache, params, adapter_grads)[0]

    m = len(cache.seq.prefix_ids)
    n_struct = cache.seq.n_struct
    d_embeddings = np.zeros_like(cache.embeddings)
    d_windows = d_x[:, : k * d].reshape(t_len, k, d)
    for j in range(k):
        idx = cache.window_idx[:, j]
        valid = idx >= 0
        if valid.any():
            np.add.at(d_embeddings, idx[valid], d_windows[valid, j])
    d_u_ctx = d_embeddings[m : m + n_struct]
    if d_u_ctx.size:
        adapter_backward(d_u_ctx, cache.ctx_cache, params, adapter_grads)
    return d_cond_in
