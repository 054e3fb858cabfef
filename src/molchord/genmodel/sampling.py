"""Temperature + nucleus sampling from the windowed generator.

Each sample owns an rng stream seeded from (base seed, pocket id, sample
index), so results do not depend on batching or scheduling. The conditioning
noise is drawn from the standard normal once per sample before any token.
``text_sampler`` and ``sample_unique`` are the pipeline's two ways of drawing:
raw texts for curation, and unique valid canonical molecules for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..hashutil import derive_seed
from ..molgraph import try_canonicalize
from .features import PocketFeatures
from .network import _lm_layers, _log_softmax, adapter_forward
from .params import ModelParams
from .vocab import Vocabulary


@dataclass(frozen=True)
class SampleResult:
    text: str
    logprob: float  # sum of log-masses of the drawn tokens under the truncated
    # per-step distributions (includes the EOS step when one was drawn)
    token_ids: tuple[int, ...]
    hit_max_len: bool
    conditioning_noise: tuple[float, ...]  # the standard-normal draw used


def sample_seed(base_seed: int, pocket_id: str, index: int) -> int:
    return derive_seed("sample", base_seed, pocket_id, index)


def check_sampling(temperature: float, top_p: float, max_len: int) -> None:
    """Raise ValueError for settings that ``sample_many`` cannot draw with."""
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must be in (0, 1]")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")


def nucleus_distribution(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Keep the smallest probability-sorted prefix with cumulative mass >=
    top_p (ties by token id) and renormalize."""
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must be in (0, 1]")
    if top_p >= 1.0:
        return probs
    order = np.lexsort((np.arange(len(probs)), -probs))
    csum = np.cumsum(probs[order])
    keep_sorted = np.empty(len(probs), dtype=bool)
    keep_sorted[0] = True
    keep_sorted[1:] = csum[:-1] < top_p
    kept = order[keep_sorted]
    out = np.zeros_like(probs)
    out[kept] = probs[kept]
    return out / out.sum()


def _step_distributions(
    params: ModelParams, x: np.ndarray, temperature: float, top_p: float
) -> np.ndarray:
    _, _, logits = _lm_layers(params, x)
    probs = np.exp(_log_softmax(logits / temperature))
    return np.stack([nucleus_distribution(row, top_p) for row in probs])


def _initial_window(
    u_ctx: np.ndarray, pad_emb: np.ndarray, window: int
) -> np.ndarray:
    buf = np.tile(pad_emb, (window, 1))
    tail = min(window, u_ctx.shape[0])
    if tail:
        buf[window - tail :] = u_ctx[-tail:]
    return buf


def sample_many(
    params: ModelParams,
    features: PocketFeatures,
    vocab: Vocabulary,
    n: int,
    base_seed: int,
    temperature: float = 1.5,
    top_p: float = 0.95,
    max_len: int = 256,
    start_index: int = 0,
    epsilon: np.ndarray | None = None,
) -> list[SampleResult]:
    """n independent draws for one pocket, stepped as a batch.

    ``start_index`` offsets the per-sample stream keys so callers can extend
    a run (resampling duplicates) without repeating earlier draws; ``epsilon``
    fixes one shared conditioning noise instead of drawing one per sample.
    """
    check_sampling(temperature, top_p, max_len)
    cfg = params.config
    k, d = cfg.window, cfg.d

    rngs = [
        np.random.default_rng(sample_seed(base_seed, features.pocket_id, start_index + i))
        for i in range(n)
    ]
    u_ctx = adapter_forward(features.vectors, params)
    pad_emb = params.token_embedding[vocab.pad_id]
    base_window = _initial_window(u_ctx, pad_emb, k)

    u_cond = np.empty((n, d))
    noises = []
    if epsilon is not None:
        shared = adapter_forward(features.pooled + epsilon, params)
        u_cond[:] = shared
        noises = [tuple(np.asarray(epsilon).tolist())] * n
    else:
        for i, rng in enumerate(rngs):
            z = rng.standard_normal(cfg.d_feat)
            noises.append(tuple(z.tolist()))
            u_cond[i] = adapter_forward(features.pooled + z, params)

    windows = np.tile(base_window[None, :, :], (n, 1, 1))
    alive = np.ones(n, dtype=bool)
    token_ids: list[list[int]] = [[] for _ in range(n)]
    logprobs = np.zeros(n)
    hit_cap = [False] * n

    for _ in range(max_len):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        x = np.concatenate([windows[idx].reshape(len(idx), k * d), u_cond[idx]], axis=1)
        dists = _step_distributions(params, x, temperature, top_p)
        for row, i in enumerate(idx):
            u = rngs[i].random()
            csum = np.cumsum(dists[row])
            token = int(np.searchsorted(csum, u, side="right"))
            token = min(token, len(csum) - 1)  # guard the u ~= 1.0 edge
            logprobs[i] += float(np.log(dists[row, token]))
            token_ids[i].append(token)
            if token == vocab.eos_id:
                alive[i] = False
            else:
                windows[i, :-1] = windows[i, 1:]
                windows[i, -1] = params.token_embedding[token]

    results = []
    for i in range(n):
        if alive[i]:
            hit_cap[i] = True
        results.append(
            SampleResult(
                text=vocab.decode(token_ids[i]),
                logprob=float(logprobs[i]),
                token_ids=tuple(token_ids[i]),
                hit_max_len=hit_cap[i],
                conditioning_noise=noises[i],
            )
        )
    return results



def text_sampler(
    params: ModelParams,
    features: Mapping[str, PocketFeatures],
    base_seed: int,
    *,
    temperature: float,
    top_p: float,
    max_len: int,
) -> Callable[[str, int], list[str]]:
    """Curation sampler: the decoded texts of ``n`` draws for one pocket.

    Each (pocket, n) is drawn once; a repeated request (pair construction
    asking for the draws that the diversity filter already saw) gets the same
    list back.
    """
    vocab = params.config.vocabulary()
    drawn: dict[tuple[str, int], list[str]] = {}

    def sampler(pocket_id: str, n: int) -> list[str]:
        if (pocket_id, n) not in drawn:
            results = sample_many(
                params,
                features[pocket_id],
                vocab,
                n,
                base_seed=base_seed,
                temperature=temperature,
                top_p=top_p,
                max_len=max_len,
            )
            drawn[pocket_id, n] = [r.text for r in results]
        return drawn[pocket_id, n]

    return sampler


def sample_unique(
    params: ModelParams,
    features: PocketFeatures,
    n_wanted: int,
    base_seed: int,
    *,
    temperature: float,
    top_p: float,
    max_len: int,
    retry_factor: int,
) -> tuple[list[tuple[str, float]], bool]:
    """Collect unique valid canonical molecules, resampling up to the retry cap
    of ``n_wanted * retry_factor`` draws.

    Returns (list of (canonical, logprob of first producing sample), capped?).
    """
    vocab = params.config.vocabulary()
    collected: dict[str, float] = {}
    index = 0
    budget = n_wanted * retry_factor
    while len(collected) < n_wanted and index < budget:
        chunk = min(max(n_wanted - len(collected), 8), budget - index)
        results = sample_many(
            params,
            features,
            vocab,
            chunk,
            base_seed=base_seed,
            temperature=temperature,
            top_p=top_p,
            max_len=max_len,
            start_index=index,
        )
        index += chunk
        for res in results:
            if len(collected) >= n_wanted:
                break
            canon = try_canonicalize(res.text)
            if canon is not None and canon not in collected:
                collected[canon] = res.logprob
    return list(collected.items()), len(collected) < n_wanted
