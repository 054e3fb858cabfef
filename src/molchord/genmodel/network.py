"""Forward and backward passes, written out by hand.

Architecture: per-vector gated adapter over pocket features; a variational
head predicting mean/log-variance of a noise vector added to the pooled
features before the adapter; and a windowed next-token predictor -- two tanh
layers plus an output projection over [k window embeddings || conditioning
vector]. Windows slide over the flattened interleaved sequence (token
embeddings and per-residue adapter outputs alike) and are PAD-padded before
the sequence start.

All gradients here are exact and finite-difference checkable; backward
passes accumulate into dicts of arrays keyed by parameter field name. The
sequence pass is packed: the target rows of every sequence in a batch go
through each layer together, in blocks of at most ``ROW_BLOCK`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interleave import InterleavedSequence
from .params import ModelParams
from .vocab import Vocabulary


class ShapeMismatch(ValueError):
    pass


# Rows enter every matrix product in fixed blocks of at most this many,
# accumulated in block order. OpenBLAS rounds a product over more rows
# differently with one thread than with two; at this size it does not, so
# checkpoints do not depend on the BLAS thread count. It also caps the
# memory of one block's intermediates.
ROW_BLOCK = 256


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, one block of a's rows at a time. A stack of single rows,
    shape (n, 1, k), is n vector-matrix products, each rounded as the
    product of that row alone."""
    out = np.empty(a.shape[:-1] + b.shape[1:])
    for s in range(0, a.shape[0], ROW_BLOCK):
        np.matmul(a[s : s + ROW_BLOCK], b, out=out[s : s + ROW_BLOCK])
    return out


def _accumulate(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """target += a.T @ b, summed over blocks of rows in block order."""
    for s in range(0, a.shape[0], ROW_BLOCK):
        target += a[s : s + ROW_BLOCK].T @ b[s : s + ROW_BLOCK]


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
    up: np.ndarray
    sig: np.ndarray


def adapter_forward(
    x: np.ndarray, params: ModelParams, want_cache: bool = False
) -> np.ndarray | tuple[np.ndarray, AdapterCache]:
    """Gated projection of feature rows: down(sigmoid(gate(x)) * up(x))."""
    squeeze = x.ndim == 1
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if rows.shape[-1] != params.adapter_gate_w.shape[1]:
        raise ShapeMismatch(
            f"adapter expects dim {params.adapter_gate_w.shape[1]}, got {rows.shape[-1]}"
        )
    gate = _rowwise(rows, params.adapter_gate_w.T) + params.adapter_gate_b
    up = _rowwise(rows, params.adapter_up_w.T) + params.adapter_up_b
    sig = _sigmoid(gate)
    out = _rowwise(sig * up, params.adapter_down_w.T) + params.adapter_down_b
    if squeeze:
        out = out[0]
    if want_cache:
        return out, AdapterCache(x=rows, up=up, sig=sig)
    return out


def adapter_backward(
    d_out: np.ndarray,
    cache: AdapterCache,
    params: ModelParams,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Accumulate the adapter's gradients into ``grads``; returns the
    gradient w.r.t. the adapter input rows."""
    d_rows = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
    mid = cache.sig * cache.up
    d_mid = _rowwise(d_rows, params.adapter_down_w)
    d_up = d_mid * cache.sig
    d_gate = d_mid * cache.up * cache.sig * (1.0 - cache.sig)
    _accumulate(grads["adapter_down_w"], d_rows, mid)
    grads["adapter_down_b"] += d_rows.sum(axis=0)
    _accumulate(grads["adapter_gate_w"], d_gate, cache.x)
    grads["adapter_gate_b"] += d_gate.sum(axis=0)
    _accumulate(grads["adapter_up_w"], d_up, cache.x)
    grads["adapter_up_b"] += d_up.sum(axis=0)
    d_x = _rowwise(d_gate, params.adapter_gate_w) + _rowwise(d_up, params.adapter_up_w)
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
    features: one vector, or one row per example. At inference the noise is
    a plain standard-normal draw, which the sampler takes from its own
    stream without this head."""
    complex_vec = np.asarray(complex_vec, dtype=np.float64)
    d_feat = params.vae_mu_w.shape[1]
    if complex_vec.ndim not in (1, 2) or complex_vec.shape[-1] != d_feat:
        raise ShapeMismatch(f"complex features must have shape ({d_feat},) or (n, {d_feat})")
    rows = np.atleast_2d(complex_vec)
    mu = (_rowwise(rows, params.vae_mu_w.T) + params.vae_mu_b).reshape(complex_vec.shape)
    log_var = (_rowwise(rows, params.vae_logvar_w.T) + params.vae_logvar_b).reshape(
        complex_vec.shape
    )
    if z is None:
        if rng is None:
            raise ValueError("vae_forward needs an rng or a recorded z")
        z = rng.standard_normal(complex_vec.shape)
    sample = mu + np.exp(0.5 * log_var) * z
    return Epsilon(mu=mu, log_var=log_var, z=z, sample=sample)


def vae_backward(
    d_mu: np.ndarray,
    d_log_var: np.ndarray,
    complex_rows: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate the variational head's gradients from d(loss)/d(mu) and
    d(loss)/d(log_var), one row per example."""
    _accumulate(grads["vae_mu_w"], d_mu, complex_rows)
    grads["vae_mu_b"] += d_mu.sum(axis=0)
    _accumulate(grads["vae_logvar_w"], d_log_var, complex_rows)
    grads["vae_logvar_b"] += d_log_var.sum(axis=0)


def _lm_layers(params: ModelParams, x: np.ndarray):
    h1 = np.tanh(x @ params.lm_w1.T + params.lm_b1)
    h2 = np.tanh(h1 @ params.lm_w2.T + params.lm_b2)
    logits = h2 @ params.lm_out_w.T + params.lm_out_b
    return h1, h2, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass(eq=False)
class PackedCache:
    """A packed forward pass, kept for its backward pass.

    Every sequence's target rows are stacked in sequence order. A window
    holds rows of ``source``: the token embeddings, then each sequence's
    adapter outputs; PAD before a sequence start is the PAD embedding row.
    """

    source: np.ndarray  # (V + total structural rows, d)
    window_idx: np.ndarray  # (T, k)
    row_seq: np.ndarray  # (T,) sequence of each target row, ascending
    targets: np.ndarray  # (T,)
    u_cond: np.ndarray  # (B, d)
    h1: np.ndarray
    h2: np.ndarray
    log_probs: np.ndarray  # (T, V)
    ctx_cache: AdapterCache
    cond_cache: AdapterCache


def _layout(seqs: list[InterleavedSequence], n_tokens: int, pad_id: int, window: int):
    """For the packed target rows: each row's window (rows of the forward's
    source table, PAD before its sequence starts), its sequence, the first
    row of each sequence, and each row's target."""
    sources, positions, bases = [], [], []
    n_ctx = offset = 0
    for seq in seqs:
        source = np.concatenate([
            n_tokens + n_ctx + np.arange(seq.n_struct),
            np.asarray(seq.suffix_ids, dtype=np.intp),
        ])
        positions.append(offset + np.arange(seq.n_struct, len(source)))
        bases.append(np.full(len(seq.suffix_ids), offset))
        sources.append(source)
        offset += len(source)
        n_ctx += seq.n_struct
    source_idx = np.concatenate(sources)
    position = np.concatenate(positions)
    slots = position[:, None] - window + np.arange(window)
    inside = slots >= np.concatenate(bases)[:, None]
    window_idx = np.where(inside, source_idx[np.maximum(slots, 0)], pad_id)
    counts = [len(seq.suffix_ids) for seq in seqs]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
    return window_idx, np.repeat(np.arange(len(seqs)), counts), starts, source_idx[position]


def _window_rows(
    source: np.ndarray, window_idx: np.ndarray, u_cond_rows: np.ndarray
) -> np.ndarray:
    """Predictor input rows: [k window embeddings || conditioning vector]."""
    n, k = window_idx.shape
    d = source.shape[1]
    x = np.empty((n, (k + 1) * d))
    for j in range(k):  # slot by slot: no (n, k, d) temporary
        x[:, j * d : (j + 1) * d] = source[window_idx[:, j]]
    x[:, k * d :] = u_cond_rows
    return x


def sequences_forward(
    params: ModelParams,
    seqs: list[InterleavedSequence],
    vocab: Vocabulary,
    epsilons: np.ndarray,
    want_cache: bool = True,
) -> tuple[np.ndarray, PackedCache | None]:
    """Sum of masked next-token log-probabilities of each sequence, in one
    packed pass over all of their target rows.

    ``epsilons`` (one row per sequence) perturbs the pooled features before
    the conditioning adapter.
    """
    cfg = params.config
    if not seqs:
        raise ValueError("no sequences")
    for seq in seqs:
        vocab.check_ids(seq.suffix_ids)
        if not seq.suffix_ids:
            raise ValueError("sequence has no masked positions")
        if seq.features.vectors.shape[1] != cfg.d_feat:
            raise ShapeMismatch("pocket feature width does not match the model")

    vectors = np.concatenate([seq.features.vectors for seq in seqs])
    u_ctx, ctx_cache = adapter_forward(vectors, params, want_cache=True)
    cond_in = np.stack([seq.features.pooled for seq in seqs]) + epsilons
    u_cond, cond_cache = adapter_forward(cond_in, params, want_cache=True)

    source = np.concatenate([params.token_embedding, u_ctx])
    window_idx, row_seq, starts, targets = _layout(
        seqs, len(params.token_embedding), vocab.pad_id, cfg.window
    )
    n_rows = len(targets)
    picked = np.empty(n_rows)
    cache = None
    if want_cache:
        cache = PackedCache(
            source=source,
            window_idx=window_idx,
            row_seq=row_seq,
            targets=targets,
            u_cond=u_cond,
            h1=np.empty((n_rows, cfg.d)),
            h2=np.empty((n_rows, cfg.d)),
            log_probs=np.empty((n_rows, len(params.lm_out_b))),
            ctx_cache=ctx_cache,
            cond_cache=cond_cache,
        )
    for s in range(0, n_rows, ROW_BLOCK):
        block = slice(s, s + ROW_BLOCK)
        x = _window_rows(source, window_idx[block], u_cond[row_seq[block]])
        h1, h2, logits = _lm_layers(params, x)
        log_probs = _log_softmax(logits)
        picked[block] = log_probs[np.arange(len(x)), targets[block]]
        if cache is not None:
            cache.h1[block], cache.h2[block], cache.log_probs[block] = h1, h2, log_probs
    return np.add.reduceat(picked, starts), cache


def sequence_forward(
    params: ModelParams,
    seq: InterleavedSequence,
    vocab: Vocabulary,
    epsilon: np.ndarray,
) -> tuple[float, PackedCache]:
    """``sequences_forward`` for one sequence."""
    eps = np.asarray(epsilon, dtype=np.float64)[None, :]
    logprobs, cache = sequences_forward(params, [seq], vocab, eps)
    return float(logprobs[0]), cache


def sequences_backward(
    cache: PackedCache,
    params: ModelParams,
    coeffs: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Accumulate d(sum_i coeffs[i] * logprob_i)/dtheta for the predictor
    and the adapter.

    Returns the gradient w.r.t. each sequence's conditioning perturbation
    (one row per sequence), which callers route into the variational head
    (or drop when the noise is an input).
    """
    cfg = params.config
    kd = cfg.window * cfg.d
    n_vocab = len(params.token_embedding)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    d_u_cond = np.zeros_like(cache.u_cond)
    d_u_ctx = np.zeros_like(cache.source[n_vocab:])
    for s in range(0, len(cache.targets), ROW_BLOCK):
        block = slice(s, s + ROW_BLOCK)
        rows = cache.row_seq[block]
        h1, h2 = cache.h1[block], cache.h2[block]
        d_logits = -np.exp(cache.log_probs[block])
        d_logits[np.arange(len(rows)), cache.targets[block]] += 1.0
        d_logits *= coeffs[rows][:, None]

        grads["lm_out_w"] += d_logits.T @ h2
        grads["lm_out_b"] += d_logits.sum(axis=0)
        d_a2 = (d_logits @ params.lm_out_w) * (1.0 - h2 * h2)
        grads["lm_w2"] += d_a2.T @ h1
        grads["lm_b2"] += d_a2.sum(axis=0)
        d_a1 = (d_a2 @ params.lm_w2) * (1.0 - h1 * h1)
        window_idx = cache.window_idx[block]
        # d_a1.T @ x, one window slot of x at a time
        for j in range(cfg.window):
            grads["lm_w1"][:, j * cfg.d : (j + 1) * cfg.d] += (
                d_a1.T @ cache.source[window_idx[:, j]]
            )
        grads["lm_w1"][:, kd:] += d_a1.T @ cache.u_cond[rows]
        grads["lm_b1"] += d_a1.sum(axis=0)

        # each sequence's conditioning vector feeds all of its rows
        first = np.flatnonzero(np.concatenate([[True], rows[1:] != rows[:-1]]))
        d_cond_rows = d_a1 @ params.lm_w1[:, kd:]
        d_u_cond[rows[first]] += np.add.reduceat(d_cond_rows, first, axis=0)
        # window slots scatter back to the adapter outputs they were read
        # from; token embeddings are frozen, so only rows that read one count
        on_ctx = window_idx >= n_vocab
        reads = np.flatnonzero(on_ctx.any(axis=1))
        if len(reads):
            d_windows = (d_a1[reads] @ params.lm_w1[:, :kd]).reshape(len(reads), cfg.window, -1)
            slots = on_ctx[reads]
            np.add.at(d_u_ctx, window_idx[reads][slots] - n_vocab, d_windows[slots])

    d_cond_in = adapter_backward(d_u_cond, cache.cond_cache, params, grads)
    if d_u_ctx.size:
        adapter_backward(d_u_ctx, cache.ctx_cache, params, grads)
    return d_cond_in
