import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from molchord.genmodel import (
    ModelConfig,
    build_interleaved,
    featurize_pocket,
    init_params,
    nucleus_distribution,
    sample_many,
    sample_seed,
    sample_unique,
    sequence_forward,
)

from .oracles import nucleus_row_oracle, sample_unique_oracle, unbatched_sample


@pytest.fixture(scope="module")
def setup():
    cfg = ModelConfig(d=16, d_feat=16, window=4, n_struct_tokens=3, seed=11)
    params = init_params(cfg)
    rng = np.random.default_rng(2)
    params.lm_out_w[:] = rng.standard_normal(params.lm_out_w.shape) * 0.8
    params.lm_out_b[:] = rng.standard_normal(params.lm_out_b.shape) * 0.5
    vocab = cfg.vocabulary()
    feats = featurize_pocket("pocketX", cfg.d_feat, seed=0, n_struct_tokens=3)
    return params, vocab, feats


# --- nucleus truncation -----------------------------------------------------


def _random_dist(rng, size):
    raw = rng.random(size) ** 3
    return raw / raw.sum()


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=0.999))
def test_nucleus_smallest_prefix_property(seed, top_p):
    probs = _random_dist(np.random.default_rng(seed), 30)
    out = nucleus_distribution(probs, top_p)
    kept = np.flatnonzero(out > 0)
    assert abs(out.sum() - 1.0) < 1e-12
    order = np.lexsort((np.arange(len(probs)), -probs))
    kept_mass = probs[kept].sum()
    assert kept_mass >= top_p - 1e-12
    # dropping the least likely kept token must fall below top_p (minimality)
    ranked_kept = [t for t in order if t in set(kept)]
    assert probs[ranked_kept[:-1]].sum() < top_p
    # the kept set is a prefix of the sorted order
    assert ranked_kept == list(order[: len(ranked_kept)])


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=2, max_value=50),
    st.floats(min_value=0.01, max_value=1.0),
    st.booleans(),
    st.integers(min_value=0, max_value=4),
)
def test_batched_nucleus_rows_equal_one_row_truncation(seed, n, size, top_p, ties, boundary):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, size)) ** 3
    if ties:  # few distinct values: ties broken by token id
        raw = np.floor(raw * 4) + 1.0
    probs = raw / raw.sum(axis=1, keepdims=True)
    if boundary:  # top_p exactly at a cumulative mass of the first row
        top_p = min(1.0, float(np.cumsum(-np.sort(-probs[0]))[min(boundary, size) - 1]))
    out = nucleus_distribution(probs, top_p)
    for row, dist in zip(out, probs):
        np.testing.assert_array_equal(row, nucleus_row_oracle(dist, top_p))
    stacked = nucleus_distribution(np.stack([probs, probs[::-1]]), top_p)
    np.testing.assert_array_equal(stacked, np.stack([out, out[::-1]]))


def test_nucleus_top_p_one_keeps_everything():
    probs = _random_dist(np.random.default_rng(0), 20)
    np.testing.assert_array_equal(nucleus_distribution(probs, 1.0), probs)


def test_nucleus_tiny_top_p_is_greedy():
    probs = _random_dist(np.random.default_rng(1), 20)
    out = nucleus_distribution(probs, 1e-9)
    assert np.count_nonzero(out) == 1
    assert out[np.argmax(probs)] == 1.0


def test_nucleus_validates_top_p():
    probs = _random_dist(np.random.default_rng(2), 5)
    with pytest.raises(ValueError):
        nucleus_distribution(probs, 0.0)
    with pytest.raises(ValueError):
        nucleus_distribution(probs, 1.5)


# --- sampling ---------------------------------------------------------------


def test_same_seed_identical_output(setup):
    params, vocab, feats = setup
    a = sample_many(params, [feats], vocab, 5, base_seed=9, max_len=30)
    b = sample_many(params, [feats], vocab, 5, base_seed=9, max_len=30)
    assert a == b


def test_batch_matches_single_draws(setup):
    params, vocab, feats = setup
    (batch,) = sample_many(params, [feats], vocab, 6, base_seed=9, max_len=30)
    singles = [
        unbatched_sample(params, feats, vocab, base_seed=9, index=i, max_len=30)
        for i in range(6)
    ]
    for b, s in zip(batch, singles):
        assert b.token_ids == s.token_ids
        assert b.text == s.text
        # batched and single-row matmuls may round the last bit differently
        assert b.logprob == pytest.approx(s.logprob, abs=1e-9)


def _replay_ended_draws(params, vocab, feats, base_seed, results):
    """Check each draw that ended at EOS against the model log-probability of
    its sequence under the noise recomputed from its stream: the first
    standard-normal draw of ``sample_seed``, before any token. Returns how
    many draws were replayed."""
    replayed = 0
    for i, res in enumerate(results):
        if res.token_ids[-1] != vocab.eos_id:  # stopped at max_len
            continue
        seq = build_interleaved(feats, res.token_ids[:-1], vocab)
        assert seq.suffix_ids == res.token_ids
        rng = np.random.default_rng(sample_seed(base_seed, feats.pocket_id, i))
        noise = rng.standard_normal(params.config.d_feat)
        logprob, _ = sequence_forward(params, seq, vocab, epsilon=noise)
        assert logprob == pytest.approx(res.logprob, abs=1e-9)
        replayed += 1
    return replayed


def test_each_draw_is_conditioned_on_the_first_draw_of_its_stream(setup):
    """Each sample's conditioning noise is the first standard-normal draw of
    its own stream, before any token, at every draw index."""
    params, vocab, feats = setup
    (results,) = sample_many(params, [feats], vocab, 8, temperature=1.0, top_p=1.0, base_seed=9,
                             max_len=40)
    assert _replay_ended_draws(params, vocab, feats, 9, results) > 0


def test_a_longer_request_extends_each_stream(setup):
    """Draw i depends only on the base seed, the pocket id and i: a longer
    request repeats a shorter one's draws and continues with the next streams."""
    params, vocab, feats = setup
    (full,) = sample_many(params, [feats], vocab, 8, base_seed=9, max_len=20)
    (head,) = sample_many(params, [feats], vocab, 4, base_seed=9, max_len=20)
    assert full[:4] == head
    for i, res in enumerate(full[4:], start=4):
        alone = unbatched_sample(params, feats, vocab, base_seed=9, index=i, max_len=20)
        assert res.token_ids == alone.token_ids


def test_max_len_respected(setup):
    params, vocab, feats = setup
    (results,) = sample_many(params, [feats], vocab, 20, base_seed=1, max_len=12,
                             temperature=2.0)
    for res in results:
        assert len(res.token_ids) <= 12


def test_greedy_limit_deterministic(setup):
    params, vocab, feats = setup
    (results,) = sample_many(params, [feats], vocab, 5, top_p=1e-9, base_seed=0, max_len=30)
    # one kept token per step: each draw takes it with probability one
    assert [res.logprob for res in results] == [0.0] * 5


def test_logprob_replay_equivalence(setup):
    """At temperature 1 / top_p 1 the sampler's accumulated log-masses equal
    the model log-probability of the sampled sequence under the same noise."""
    params, vocab, feats = setup
    (results,) = sample_many(params, [feats], vocab, 10, temperature=1.0, top_p=1.0,
                             base_seed=33, max_len=40)
    assert _replay_ended_draws(params, vocab, feats, 33, results) > 0


def test_truncated_logprob_sums_only_kept_mass(setup):
    params, vocab, feats = setup
    ((res,),) = sample_many(params, [feats], vocab, 1, temperature=1.0, top_p=0.5, base_seed=3,
                            max_len=20)
    assert res.logprob <= 0.0
    assert np.isfinite(res.logprob)


def test_draws_of_several_pockets_step_together(setup, monkeypatch):
    """Requests of several pockets, stepped as one batch that is smaller
    than their draws, give each request what ``sample_many`` gives it."""
    from molchord.genmodel import sampling

    params, vocab, _ = setup
    monkeypatch.setattr(sampling, "ROW_BLOCK", 5)
    pockets = [
        featurize_pocket(f"pocket{i}", 16, seed=0, n_struct_tokens=(1, 3, 6, 2)[i])
        for i in range(4)
    ]
    plan = [[(0, 3), (3, 0), (3, 9)], [(2, 1)], [], [(0, 12), (20, 4)]]

    def job(requests):
        got = []
        for start, n in requests:
            got.append((yield start, n))
        return got

    done = sampling._run_jobs(
        params, vocab, [(p, job(r)) for p, r in zip(pockets, plan)], base_seed=9,
        temperature=1.5, top_p=0.95, max_len=30,
    )
    for pocket, requests, results in zip(pockets, plan, done):
        assert len(results) == len(requests)
        for (start, n), got in zip(requests, results):
            (drawn,) = sample_many(params, [pocket], vocab, start + n, base_seed=9, max_len=30)
            alone = drawn[start:]
            assert len(got) == n
            for a, b in zip(got, alone):
                assert a.token_ids == b.token_ids
                assert a.text == b.text
                # rows that share a matrix product may round the last bit differently
                assert a.logprob == pytest.approx(b.logprob, abs=1e-9)


def test_sample_unique_over_pockets_matches_per_pocket_loop(setup):
    params, _, _ = setup
    pockets = [featurize_pocket(f"pocket{i}", 16, seed=0, n_struct_tokens=3) for i in range(5)]
    settings = dict(temperature=1.5, top_p=0.95, max_len=30, retry_factor=3)
    together = sample_unique(params, pockets, 6, 4, **settings)
    for pocket, (molecules, capped) in zip(pockets, together):
        expected, expected_capped = sample_unique_oracle(params, pocket, 6, 4, **settings)
        assert capped == expected_capped
        assert [smiles for smiles, _ in molecules] == [smiles for smiles, _ in expected]
        assert [lp for _, lp in molecules] == pytest.approx([lp for _, lp in expected], abs=1e-9)

