import json
import math

import numpy as np
import pytest

from molchord.genmodel import (
    ModelConfig,
    SFT_TRAINABLE,
    ShapeMismatch,
    TokenOutOfVocab,
    adapter_forward,
    build_interleaved,
    complex_feature_vector,
    featurize_pocket,
    init_params,
    ligand_feature_vector,
    load_params,
    save_params,
    sequence_forward,
    vae_forward,
)
from molchord.genmodel.vocab import BOS, EOS, PAD, SMILES_CHARS, make_vocabulary

from .oracles import lm_logits


def smiles_vocabulary(extra_text: str = ""):
    """The default vocabulary with ``extra_text``'s novel characters appended."""
    tokens = [PAD, BOS, EOS, *SMILES_CHARS]
    for ch in extra_text:
        if ch not in tokens:
            tokens.append(ch)
    return make_vocabulary(tokens)


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(d=16, d_feat=16, window=4, n_struct_tokens=3, seed=3)


@pytest.fixture(scope="module")
def params(cfg):
    return init_params(cfg)


@pytest.fixture(scope="module")
def vocab(cfg):
    return cfg.vocabulary()


# --- vocabulary -------------------------------------------------------------


def test_vocab_round_trip(vocab):
    for text in ["CCO", "c1ccccc1", "ClCCBr", "C[N+](C)(C)C", "C%12CC%12"]:
        assert vocab.decode(vocab.encode(text)) == text


def test_vocab_two_letter_tokens(vocab):
    ids = vocab.encode("ClC")
    assert len(ids) == 2
    assert vocab.tokens[ids[0]] == "Cl"


def test_vocab_rejects_unknown(vocab):
    with pytest.raises(TokenOutOfVocab):
        vocab.encode("hello world")


def test_vocab_extension():
    extended = smiles_vocabulary(extra_text="make a ligand for ->")
    assert extended.encode("make a ligand for ")
    assert extended.size > smiles_vocabulary().size


# --- featurization ----------------------------------------------------------


def test_featurize_deterministic():
    a = featurize_pocket("pocketA", 16, seed=1)
    b = featurize_pocket("pocketA", 16, seed=1)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    np.testing.assert_array_equal(a.pooled, b.pooled)


def test_featurize_distinct_ids_distinct_features():
    seen = set()
    for i in range(1000):
        feats = featurize_pocket(f"pocket{i}", 8, seed=0, n_struct_tokens=1)
        seen.add(feats.vectors.tobytes())
    assert len(seen) == 1000


def test_featurize_sequence_one_vector_per_residue():
    feats = featurize_pocket("p", 16, seed=0, pocket_sequence="GA")
    assert feats.n_tokens == 2
    longer = featurize_pocket("p", 16, seed=0, pocket_sequence="GAVLIK")
    assert longer.n_tokens == 6


def test_featurize_pooled_is_mean():
    feats = featurize_pocket("p", 16, seed=0)
    np.testing.assert_allclose(feats.pooled, feats.vectors.mean(axis=0))


def test_ligand_and_complex_features():
    pocket = featurize_pocket("p", 16, seed=0)
    lig = ligand_feature_vector("CCO", 16, seed=0)
    np.testing.assert_array_equal(lig, ligand_feature_vector("CCO", 16, seed=0))
    combo = complex_feature_vector(pocket, "CCO", seed=0)
    np.testing.assert_allclose(combo, 0.5 * (pocket.pooled + lig))


# --- adapter ----------------------------------------------------------------


def test_adapter_zero_weights_zero_output(cfg):
    params = init_params(cfg)
    for name in ("adapter_gate_w", "adapter_gate_b", "adapter_up_w", "adapter_up_b",
                 "adapter_down_w", "adapter_down_b"):
        getattr(params, name)[:] = 0.0
    x = np.ones(cfg.d_feat)
    np.testing.assert_array_equal(adapter_forward(x, params), np.zeros(cfg.d))


def test_adapter_saturated_gate_is_identity(cfg):
    params = init_params(cfg)
    params.adapter_gate_w[:] = 0.0
    params.adapter_gate_b[:] = 30.0  # sigmoid saturates to 1
    params.adapter_up_w[:] = np.eye(cfg.d)
    params.adapter_up_b[:] = 0.0
    params.adapter_down_w[:] = np.eye(cfg.d)
    params.adapter_down_b[:] = 0.0
    x = np.random.default_rng(0).standard_normal(cfg.d_feat)
    np.testing.assert_allclose(adapter_forward(x, params), x, atol=1e-12)


def test_adapter_batch_order_preserved(params, cfg):
    rows = np.random.default_rng(1).standard_normal((5, cfg.d_feat))
    batch = adapter_forward(rows, params)
    singles = np.stack([adapter_forward(row, params) for row in rows])
    np.testing.assert_allclose(batch, singles, atol=1e-12)


def test_adapter_rounds_a_stack_of_single_rows_as_each_row_alone(params, cfg):
    """The sampler conditions a batch of draws as a (n, 1, d_feat) stack, so
    that a draw's conditioning does not depend on the draws beside it."""
    rows = np.random.default_rng(3).standard_normal((300, cfg.d_feat))
    stacked = adapter_forward(rows[:, None], params)[:, 0]
    alone = np.stack([adapter_forward(row, params) for row in rows])
    assert stacked.tobytes() == alone.tobytes()


def test_adapter_shape_mismatch(params):
    with pytest.raises(ShapeMismatch):
        adapter_forward(np.ones(7), params)


# --- variational head -------------------------------------------------------


def test_vae_zero_projections_give_zero_kl(params, cfg):
    eps = vae_forward(np.ones(cfg.d_feat), params, rng=np.random.default_rng(0))
    assert not eps.mu.any() and not eps.log_var.any()
    np.testing.assert_array_equal(eps.sample, eps.z)


def test_vae_reparameterization_identity(cfg):
    params = init_params(cfg)
    rng = np.random.default_rng(2)
    params.vae_mu_w[:] = rng.standard_normal(params.vae_mu_w.shape) * 0.3
    params.vae_logvar_w[:] = rng.standard_normal(params.vae_logvar_w.shape) * 0.2
    eps = vae_forward(rng.standard_normal(cfg.d_feat), params, rng=rng)
    np.testing.assert_allclose(
        eps.sample - eps.mu, np.exp(0.5 * eps.log_var) * eps.z, atol=1e-12
    )


# --- interleaving -----------------------------------------------------------


def test_interleaved_index_arithmetic(vocab, cfg):
    one_vector = featurize_pocket("p", cfg.d_feat, seed=0, n_struct_tokens=1)
    seq = build_interleaved(one_vector, vocab.encode("C"), vocab)
    assert seq.n_struct == 1
    assert seq.suffix_ids == vocab.encode("C") + (vocab.eos_id,)  # 'C' plus the end marker


def test_interleaved_mask_length_matches_suffix(vocab, cfg):
    """The packed layout reads one target row per suffix token, in order,
    after the structural block."""
    from molchord.genmodel.network import _layout

    feats = featurize_pocket("p", cfg.d_feat, seed=0, n_struct_tokens=5)
    seq = build_interleaved(feats, vocab.encode("CCO"), vocab)
    _, row_seq, starts, targets = _layout([seq, seq], vocab.size, vocab.pad_id, cfg.window)
    assert list(targets) == list(seq.suffix_ids) * 2
    assert list(row_seq) == [0] * len(seq.suffix_ids) + [1] * len(seq.suffix_ids)
    assert list(starts) == [0, len(seq.suffix_ids)]


# --- windowed predictor -----------------------------------------------------


def test_lm_uniform_at_zero_weights(cfg, vocab):
    params = init_params(cfg)  # zero output projection at init
    window = np.random.default_rng(0).standard_normal((cfg.window, cfg.d))
    u_cond = np.random.default_rng(1).standard_normal(cfg.d)
    probs = lm_logits(window, u_cond, params)
    np.testing.assert_allclose(probs, np.full(vocab.size, 1.0 / vocab.size), atol=1e-12)


def test_lm_probabilities_sum_to_one(cfg):
    params = init_params(cfg)
    rng = np.random.default_rng(4)
    params.lm_out_w[:] = rng.standard_normal(params.lm_out_w.shape)
    for _ in range(5):
        probs = lm_logits(
            rng.standard_normal((cfg.window, cfg.d)), rng.standard_normal(cfg.d), params
        )
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs >= 0).all()


def test_lm_conditioning_changes_logits(cfg):
    params = init_params(cfg)
    rng = np.random.default_rng(6)
    params.lm_out_w[:] = rng.standard_normal(params.lm_out_w.shape) * 0.5
    window = rng.standard_normal((cfg.window, cfg.d))
    a = lm_logits(window, rng.standard_normal(cfg.d), params)
    b = lm_logits(window, rng.standard_normal(cfg.d), params)
    assert not np.allclose(a, b)


def test_lm_shape_mismatch(params, cfg):
    with pytest.raises(ShapeMismatch):
        lm_logits(np.zeros((cfg.window + 1, cfg.d)), np.zeros(cfg.d), params)


# --- sequence log-probability -----------------------------------------------


def test_sequence_logprob_uniform_values(cfg):
    tokens = [f"t{i}" for i in range(27)] + ["<bos>", "<eos>", "<pad>"]
    from molchord.genmodel import make_vocabulary

    vocab30 = make_vocabulary(tuple(tokens))
    assert vocab30.size == 30
    cfg30 = ModelConfig(d=8, d_feat=8, window=3, n_struct_tokens=2,
                        vocab_tokens=tuple(tokens))
    params = init_params(cfg30)
    feats = featurize_pocket("p", 8, seed=0, n_struct_tokens=2)
    noise = np.random.default_rng(0).standard_normal(8)
    # one target plus the end marker, each at probability 1/30
    seq = build_interleaved(feats, (0,), vocab30)
    logprob, _ = sequence_forward(params, seq, vocab30, epsilon=noise)
    assert logprob == pytest.approx(-2 * math.log(30), abs=1e-12)
    two = build_interleaved(feats, (0, 1), vocab30)
    logprob2, _ = sequence_forward(params, two, vocab30, epsilon=noise)
    assert logprob2 == pytest.approx(-3 * math.log(30), abs=1e-12)


def test_sequence_logprob_nonpositive(params, vocab, cfg, rng):
    trained = init_params(cfg)
    trained.lm_out_w[:] = rng.standard_normal(trained.lm_out_w.shape)
    feats = featurize_pocket("p", cfg.d_feat, seed=0, n_struct_tokens=3)
    for text in ["C", "CCO", "c1ccccc1"]:
        seq = build_interleaved(feats, vocab.encode(text), vocab)
        noise = rng.standard_normal(cfg.d_feat)
        logprob, _ = sequence_forward(trained, seq, vocab, epsilon=noise)
        assert logprob <= 0


def test_sequence_rejects_bad_token_ids(params, vocab, cfg):
    from molchord.genmodel import InterleavedSequence

    feats = featurize_pocket("p", cfg.d_feat, seed=0, n_struct_tokens=3)
    with pytest.raises(TokenOutOfVocab):
        build_interleaved(feats, (vocab.size + 5,), vocab)
    rogue = InterleavedSequence(features=feats, suffix_ids=(vocab.size + 5,))
    with pytest.raises(TokenOutOfVocab):
        sequence_forward(params, rogue, vocab, epsilon=np.zeros(cfg.d_feat))


def test_mask_boundary_context_vs_targets(cfg, vocab):
    """Structural positions shape the context but are never targets: editing
    a structural vector that no window reaches leaves the loss unchanged,
    editing one inside a window moves it, and editing any target changes
    which probabilities are read out."""
    from dataclasses import replace

    cfg2 = ModelConfig(d=8, d_feat=8, window=2, n_struct_tokens=5, seed=9)
    params = init_params(cfg2)
    rng = np.random.default_rng(0)
    params.lm_out_w[:] = rng.standard_normal(params.lm_out_w.shape) * 0.3
    feats = featurize_pocket("p", 8, seed=0, n_struct_tokens=5)
    noise = rng.standard_normal(8)

    def logprob(features, text):
        seq = build_interleaved(features, vocab.encode(text), vocab)
        return sequence_forward(params, seq, vocab, epsilon=noise)[0]

    lp_base = logprob(feats, "CC")
    assert logprob(feats, "CN") != lp_base  # targets enter the loss

    def with_vector(index):
        vectors = feats.vectors.copy()
        vectors[index] += 1.0
        return replace(feats, vectors=vectors)  # pooled features unchanged

    # the first target's window holds the last two structural vectors; no
    # window reaches the first three, and no structural position is a target
    assert logprob(with_vector(-1), "CC") != lp_base
    for index in range(3):
        assert logprob(with_vector(index), "CC") == lp_base


# --- parameters -------------------------------------------------------------


def test_zero_grads_covers_exactly_the_named_fields(params):
    assert SFT_TRAINABLE == set(params.array_fields()) - {"token_embedding"}
    every = params.zero_grads()
    assert list(every) == sorted(SFT_TRAINABLE)
    assert all(not g.any() and g.shape == getattr(params, name).shape for name, g in every.items())
    # one buffer laid out like the trainable tail of the parameters
    assert every.flat.shape == params.trainable.shape
    assert all(g.base is every.flat for g in every.values())
    assert params.array_fields()[0] == "token_embedding"
    assert params.trainable.size == params.flat.size - params.token_embedding.size


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, cfg):
    params = init_params(cfg)
    rng = np.random.default_rng(8)
    params.lm_w1[:] = rng.standard_normal(params.lm_w1.shape)
    # values whose bits a text format could lose: -0.0, the smallest
    # subnormal, both infinities and a NaN with a payload
    params.lm_b1[:4] = [-0.0, 5e-324, np.inf, -np.inf]
    params.lm_b1.view(np.uint64)[4] = 0x7FF4_0000_DEAD_BEEF
    path = tmp_path / "model.json"
    save_params(path, params, extra={"stage": "test", "step": 7})
    loaded = load_params(path)
    assert json.loads(path.read_text())["extra"] == {"stage": "test", "step": 7}
    assert loaded.config == cfg
    assert np.array_equal(loaded.flat.view(np.uint64), params.flat.view(np.uint64))
    for name in params.array_fields():
        assert getattr(loaded, name).base is loaded.flat
        assert np.array_equal(getattr(loaded, name).view(np.uint64),
                              getattr(params, name).view(np.uint64))


def test_load_params_builds_no_random_model(tmp_path, cfg, monkeypatch):
    """Shapes come from the config alone: a checkpoint whose config names a
    huge model must not allocate one to compare against."""
    from molchord.genmodel import params as params_module

    path = tmp_path / "model.json"
    save_params(path, init_params(cfg))

    def refuse(config):
        raise AssertionError("load_params built a random model")

    monkeypatch.setattr(params_module, "init_params", refuse)
    loaded = load_params(path)
    assert loaded.config == cfg


def test_checkpoint_bytes_stable(tmp_path, cfg):
    params = init_params(cfg)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_params(a, params)
    save_params(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_detects_corruption(tmp_path, cfg):
    params = init_params(cfg)
    path = tmp_path / "model.json"
    save_params(path, params)
    doc = json.loads(path.read_text())
    text, i = doc["params"], len(doc["params"]) // 2
    doc["params"] = text[:i] + ("B" if text[i] != "B" else "C") + text[i + 1 :]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="content hash mismatch"):
        load_params(path)
