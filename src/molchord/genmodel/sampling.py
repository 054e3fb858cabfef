"""Temperature + nucleus sampling from the windowed generator.

Each sample owns an rng stream seeded from (base seed, pocket id, sample
index), and the conditioning noise is drawn from the standard normal once per
sample before any token. Every step truncates and draws for all live rows at
once, and the rows may come from several pockets (``sample_unique`` steps
every pocket's draws together). A sample's tokens, text and noise do not
depend on batching or scheduling; the last bits of its ``logprob`` may,
because a matrix product rounds differently with a different number of rows.
``text_sampler`` and ``sample_unique`` are the pipeline's two ways of drawing:
raw texts for curation, and unique valid canonical molecules for evaluation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Mapping, Sequence

import numpy as np

from ..hashutil import derive_seed
from ..molgraph import try_canonicalize
from .features import PocketFeatures
from .network import ROW_BLOCK, _lm_layers, _log_softmax, _window_rows, adapter_forward
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
    top_p (ties by token id) of each distribution along the last axis, and
    renormalize."""
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must be in (0, 1]")
    if top_p >= 1.0:
        return probs
    order = np.argsort(-probs, axis=-1, kind="stable")
    csum = np.cumsum(np.take_along_axis(probs, order, axis=-1), axis=-1)
    keep_sorted = np.empty(probs.shape, dtype=bool)
    keep_sorted[..., 0] = True
    keep_sorted[..., 1:] = csum[..., :-1] < top_p
    keep = np.empty_like(keep_sorted)
    np.put_along_axis(keep, order, keep_sorted, axis=-1)
    out = np.where(keep, probs, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def _step_distributions(
    params: ModelParams, x: np.ndarray, temperature: float, top_p: float
) -> np.ndarray:
    _, _, logits = _lm_layers(params, x)
    return nucleus_distribution(np.exp(_log_softmax(logits / temperature)), top_p)


def _initial_window(
    u_ctx: np.ndarray, pad_emb: np.ndarray, window: int
) -> np.ndarray:
    """The embeddings of a draw's first window: PAD, then the trailing
    adapter outputs of its pocket."""
    buf = np.tile(pad_emb, (window, 1))
    tail = min(window, u_ctx.shape[0])
    if tail:
        buf[window - tail :] = u_ctx[-tail:]
    return buf


# A job draws for one pocket: it yields (start index, count) requests, is sent
# each request's results in stream order, and returns its own result.
Job = Generator[tuple[int, int], list[SampleResult], object]


@dataclass(eq=False)
class _Request:
    job: int
    start: int
    results: list[SampleResult | None]
    left: int  # draws still decoding


class _Live:
    """The rows being decoded: one per draw, from any pocket, as arrays.

    A window holds rows of the step's embedding table (token embeddings,
    then each pocket's first window), so sliding it shifts integers.
    """

    def __init__(self, k: int, d: int, max_len: int):
        self.window = np.empty((0, k), dtype=np.intp)
        self.u_cond = np.empty((0, d))
        self.tokens = np.empty((0, max_len), dtype=np.intp)
        self.length = np.empty(0, dtype=np.intp)
        self.logprob = np.empty(0)
        # per row: its stream, its request, its position there, its noise
        self.draws: list[tuple[np.random.Generator, _Request, int, tuple[float, ...]]] = []

    def __len__(self) -> int:
        return len(self.draws)

    def extend(self, draws, window: np.ndarray, u_cond: np.ndarray) -> None:
        n = len(draws)
        self.window = np.concatenate([self.window, window])
        self.u_cond = np.concatenate([self.u_cond, u_cond])
        self.tokens = np.concatenate([self.tokens, np.zeros((n, self.tokens.shape[1]), np.intp)])
        self.length = np.concatenate([self.length, np.zeros(n, dtype=np.intp)])
        self.logprob = np.concatenate([self.logprob, np.zeros(n)])
        self.draws += draws

    def keep(self, mask: np.ndarray) -> None:
        for name in ("window", "u_cond", "tokens", "length", "logprob"):
            setattr(self, name, getattr(self, name)[mask])
        self.draws = [draw for draw, kept in zip(self.draws, mask) if kept]


def _run_jobs(
    params: ModelParams,
    vocab: Vocabulary,
    jobs: Sequence[tuple[PocketFeatures, Job]],
    base_seed: int,
    temperature: float,
    top_p: float,
    max_len: int,
    epsilon: np.ndarray | None = None,
) -> list:
    """Run every job to its end, stepping the live draws of all of them as
    one batch of at most ``ROW_BLOCK`` rows; returns each job's result.

    Draws join the batch in request order as rows free up, and a request's
    results go back to its job as soon as its last draw ends, so a job's
    next request starts while other jobs are still decoding.
    """
    check_sampling(temperature, top_p, max_len)
    cfg = params.config
    k, n_tokens = cfg.window, len(params.token_embedding)
    # each job's first window follows the token embeddings in the table
    pad_emb = params.token_embedding[vocab.pad_id]
    table = np.concatenate([
        params.token_embedding,
        *(_initial_window(adapter_forward(f.vectors, params), pad_emb, k) for f, _ in jobs),
    ])
    first_windows = n_tokens + k * np.arange(len(jobs))[:, None] + np.arange(k)
    shared: dict[int, np.ndarray] = {}  # per job: the conditioning of ``epsilon``

    pending: deque[tuple[_Request, int]] = deque()  # draws not yet live
    outcome: list = [None] * len(jobs)
    live = _Live(k, cfg.d, max_len)

    def advance(j: int, results: list[SampleResult] | None) -> None:
        """Send a job its results; queue its next non-empty request."""
        try:
            start, n = jobs[j][1].send(results)
            while n == 0:
                start, n = jobs[j][1].send([])
        except StopIteration as stop:
            outcome[j] = stop.value
            return
        request = _Request(j, start, [None] * n, n)
        pending.extend((request, i) for i in range(n))

    def admit(count: int) -> None:
        """Start the next ``count`` pending draws: stream, noise, conditioning."""
        draws, windows, u_conds = [], [], []
        for _ in range(count):
            request, i = pending.popleft()
            features = jobs[request.job][0]
            rng = np.random.default_rng(
                sample_seed(base_seed, features.pocket_id, request.start + i)
            )
            if epsilon is None:
                z = rng.standard_normal(cfg.d_feat)
                u_conds.append(adapter_forward(features.pooled + z, params))
            else:
                z = np.asarray(epsilon)
                if request.job not in shared:
                    shared[request.job] = adapter_forward(features.pooled + epsilon, params)
                u_conds.append(shared[request.job])
            draws.append((rng, request, i, tuple(z.tolist())))
            windows.append(first_windows[request.job])
        live.extend(draws, np.array(windows), np.array(u_conds))

    for j in range(len(jobs)):
        advance(j, None)
    while pending or len(live):
        if pending and len(live) < ROW_BLOCK:
            admit(min(len(pending), ROW_BLOCK - len(live)))
        rows = np.arange(len(live))
        x = _window_rows(table, live.window, live.u_cond)
        dists = _step_distributions(params, x, temperature, top_p)
        u = np.array([draw[0].random() for draw in live.draws])
        csum = np.cumsum(dists, axis=1)
        # inverse CDF; the min guards the u ~= 1.0 edge
        token = np.minimum((csum <= u[:, None]).sum(axis=1), dists.shape[1] - 1)
        live.logprob += np.log(dists[rows, token])
        live.tokens[rows, live.length] = token
        live.length += 1
        if k:  # a window-0 model reads only its conditioning
            live.window[:, :-1] = live.window[:, 1:]
            live.window[:, -1] = token
        ended = (token == vocab.eos_id) | (live.length == max_len)
        for row in np.flatnonzero(ended):
            ids = live.tokens[row, : live.length[row]].tolist()
            _, request, i, noise = live.draws[row]
            request.results[i] = SampleResult(
                text=vocab.decode(ids),
                logprob=float(live.logprob[row]),
                token_ids=tuple(ids),
                hit_max_len=bool(token[row] != vocab.eos_id),
                conditioning_noise=noise,
            )
            request.left -= 1
            if not request.left:
                advance(request.job, request.results)
        if ended.any():
            live.keep(~ended)
    return outcome


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

    def one_request() -> Job:
        return (yield start_index, n)

    (results,) = _run_jobs(
        params, vocab, [(features, one_request())], base_seed, temperature, top_p, max_len,
        epsilon,
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


def _collect_unique(n_wanted: int, retry_factor: int) -> Job:
    """One pocket's resampling loop: draw in chunks until ``n_wanted``
    unique valid canonical molecules or ``n_wanted * retry_factor`` draws."""
    collected: dict[str, float] = {}
    index = 0
    budget = n_wanted * retry_factor
    while len(collected) < n_wanted and index < budget:
        chunk = min(max(n_wanted - len(collected), 8), budget - index)
        results = yield index, chunk
        index += chunk
        for res in results:
            if len(collected) >= n_wanted:
                break
            canon = try_canonicalize(res.text)
            if canon is not None and canon not in collected:
                collected[canon] = res.logprob
    return list(collected.items()), len(collected) < n_wanted


def sample_unique(
    params: ModelParams,
    pockets: Sequence[PocketFeatures],
    n_wanted: int,
    base_seed: int,
    *,
    temperature: float,
    top_p: float,
    max_len: int,
    retry_factor: int,
) -> list[tuple[list[tuple[str, float]], bool]]:
    """Collect unique valid canonical molecules for each pocket, resampling
    up to the retry cap of ``n_wanted * retry_factor`` draws; the draws of
    all pockets are stepped together.

    Returns, per pocket, (list of (canonical, logprob of first producing
    sample), capped?).
    """
    return _run_jobs(
        params,
        params.config.vocabulary(),
        [(features, _collect_unique(n_wanted, retry_factor)) for features in pockets],
        base_seed,
        temperature,
        top_p,
        max_len,
    )
