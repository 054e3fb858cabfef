import math

import numpy as np
import pytest

from molchord.curation import PreferencePair
from molchord.genmodel import (
    InterleavedSequence,
    ModelConfig,
    build_interleaved,
    complex_feature_vector,
    featurize_pocket,
    init_params,
    make_vocabulary,
    sequence_forward,
)
from molchord.training import (
    DpoExample,
    EmptyBatch,
    SftExample,
    build_dpo_examples,
    dpo_loss,
    grad_check,
    kl_gaussian,
    kl_gaussian_grads,
    sft_loss,
)
from molchord.training.gradcheck import NonDeterministicLoss

from .oracles import alignment_loss, dpo_margin_oracle


def _randomized_params(cfg, seed=0, scale=0.4):
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    for name in params.array_fields():
        arr = getattr(params, name)
        arr += rng.standard_normal(arr.shape) * scale / max(1.0, np.sqrt(arr.shape[-1]))
    return params


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(d=16, d_feat=16, window=4, n_struct_tokens=3, seed=1)


@pytest.fixture(scope="module")
def vocab(cfg):
    return cfg.vocabulary()


@pytest.fixture(scope="module")
def feats(cfg):
    return featurize_pocket("pocket0", cfg.d_feat, seed=0, n_struct_tokens=3)


@pytest.fixture(scope="module")
def batch(vocab, feats):
    return [
        build_interleaved(feats, vocab.encode(s), vocab)
        for s in ("CCO", "c1ccccc1", "CC(C)N")
    ]


@pytest.fixture(scope="module")
def sft_batch(vocab, feats, batch):
    return [
        SftExample(seq=seq, complex_vec=complex_feature_vector(feats, text, seed=0))
        for seq, text in zip(batch, ("CCO", "c1ccccc1", "CC(C)N"))
    ]


# --- closed-form KL ----------------------------------------------------------


def test_kl_values():
    assert kl_gaussian(np.zeros(4), np.zeros(4)) == 0.0
    assert kl_gaussian(np.array([1.0]), np.array([0.0])) == 0.5
    assert kl_gaussian(np.array([0.0]), np.array([1.0])) == pytest.approx(
        (math.e - 2) / 2, abs=1e-12
    )


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert kl_gaussian(rng.standard_normal(6), rng.standard_normal(6)) >= 0.0


def test_kl_gradients_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = rng.standard_normal(5)
        log_var = rng.standard_normal(5)
        d_mu, d_lv = kl_gaussian_grads(mu, log_var)
        h = 1e-6
        for j in range(5):
            for vec, grad in ((mu, d_mu), (log_var, d_lv)):
                orig = vec[j]
                vec[j] = orig + h
                up = kl_gaussian(mu, log_var)
                vec[j] = orig - h
                down = kl_gaussian(mu, log_var)
                vec[j] = orig
                numeric = (up - down) / (2 * h)
                assert abs(numeric - grad[j]) / max(1, abs(numeric), abs(grad[j])) < 1e-6


# --- alignment: the masked NLL under zero noise ---------------------------------
# With zeroed variational weights and zero noise the supervised loss is the
# structure-to-text alignment objective: the mean masked NLL of the targets
# given the pocket, with no conditioning perturbation and a zero KL.


def _alignment_examples(params, seqs):
    """Zero the variational head; returns the examples and zero noises."""
    for name in ("vae_mu_w", "vae_mu_b", "vae_logvar_w", "vae_logvar_b"):
        getattr(params, name)[:] = 0.0
    d_feat = params.config.d_feat
    examples = [SftExample(seq=seq, complex_vec=np.zeros(d_feat)) for seq in seqs]
    return examples, tuple(np.zeros(d_feat) for _ in seqs)


def test_alignment_uniform_value(feats):
    tokens = tuple(f"t{i}" for i in range(27)) + ("<bos>", "<eos>", "<pad>")
    vocab30 = make_vocabulary(tokens)
    cfg30 = ModelConfig(d=8, d_feat=16, window=3, n_struct_tokens=3, vocab_tokens=tokens)
    params = init_params(cfg30)
    examples, zeros = _alignment_examples(params, [build_interleaved(feats, (0,), vocab30)])
    loss, _, aux = sft_loss(params, examples, vocab30, noises=zeros)
    # one target and the end marker, each at probability 1/30
    assert loss == pytest.approx(2 * math.log(30), abs=1e-12)
    assert aux.kl == 0.0


def test_alignment_empty_batch(cfg, vocab):
    """The packed pass itself rejects an empty batch."""
    with pytest.raises(ValueError):
        alignment_loss(init_params(cfg), [], vocab)


def test_alignment_rejects_empty_suffix(cfg, vocab, feats):
    params = init_params(cfg)
    seq = InterleavedSequence(features=feats, suffix_ids=())
    examples, zeros = _alignment_examples(params, [seq])
    with pytest.raises(ValueError, match="no masked positions"):
        sft_loss(params, examples, vocab, noises=zeros)


def test_alignment_grads_adapter_only(cfg, vocab, batch):
    params = _randomized_params(cfg)
    _, grads = alignment_loss(params, batch, vocab)
    assert set(grads) == {
        "adapter_gate_w", "adapter_gate_b", "adapter_up_w", "adapter_up_b",
        "adapter_down_w", "adapter_down_b",
    }
    assert grad_check(lambda p: alignment_loss(p, batch, vocab), params) < 1e-3


def test_alignment_improves_with_training(cfg, vocab, feats):
    from molchord.training import AdamState, adam_step

    params = _randomized_params(cfg, seed=3)
    corpus = ["CCO", "CCN", "CCC", "c1ccccc1", "CC(C)O"] * 10
    seqs = [build_interleaved(feats, vocab.encode(s), vocab) for s in corpus]
    examples, zeros = _alignment_examples(params, seqs)
    start, _, _ = sft_loss(params, examples, vocab, noises=zeros)
    state = AdamState()
    for _ in range(100):
        _, grads, _ = sft_loss(params, examples, vocab, noises=zeros)
        # the variational head gets zero gradients, which Adam turns into an
        # update of exactly 0, so the head and the noise stay as they are
        for name in grads:
            if name.startswith("vae_"):
                grads[name][...] = 0.0
        adam_step(params, grads, state, lr=3e-3)
    end, _, _ = sft_loss(params, examples, vocab, noises=zeros)
    assert end < start


# --- supervised loss ---------------------------------------------------------


def test_sft_beta_zero_with_zero_noise_equals_alignment(cfg, vocab, batch, sft_batch):
    params = _randomized_params(cfg, seed=5)
    # zero variational projections put the posterior mean at zero, so the zero
    # draw makes the conditioning perturbation exactly zero
    for name in ("vae_mu_w", "vae_mu_b", "vae_logvar_w", "vae_logvar_b"):
        getattr(params, name)[:] = 0.0
    zeros = tuple(np.zeros(cfg.d_feat) for _ in sft_batch)
    loss, _, aux = sft_loss(params, sft_batch, vocab, beta_vae=0.0, noises=zeros)
    align, _ = alignment_loss(params, batch, vocab)
    assert loss == pytest.approx(align, abs=1e-12)
    assert aux.kl == pytest.approx(0.0, abs=1e-12)


def test_sft_zero_projections_loss_is_nll(cfg, vocab, sft_batch):
    params = _randomized_params(cfg, seed=6)
    params.vae_mu_w[:] = 0.0
    params.vae_mu_b[:] = 0.0
    params.vae_logvar_w[:] = 0.0
    params.vae_logvar_b[:] = 0.0
    loss, _, aux = sft_loss(params, sft_batch, vocab, rng=np.random.default_rng(0))
    assert aux.kl == 0.0
    assert loss == pytest.approx(aux.nll, abs=1e-12)


def test_sft_kl_gradient_direction(cfg, vocab, feats):
    """With one example, mean mu = [1,...] and beta 0.1, d(loss)/d(mu bias) from
    the KL term alone is exactly 0.1 per coordinate."""
    params = init_params(cfg)  # zero predictor: NLL indifferent to epsilon
    params.vae_mu_b[:] = 1.0
    example = SftExample(
        seq=build_interleaved(feats, vocab.encode("C"), vocab),
        complex_vec=np.zeros(cfg.d_feat),
    )
    zeros = (np.zeros(cfg.d_feat),)
    _, grads, _ = sft_loss(params, [example], vocab, beta_vae=0.1, noises=zeros)
    np.testing.assert_allclose(grads["vae_mu_b"], np.full(cfg.d_feat, 0.1), atol=1e-12)


def test_sft_noise_recorded_and_reused(cfg, vocab, sft_batch):
    params = _randomized_params(cfg, seed=7)
    loss_a, _, aux = sft_loss(params, sft_batch, vocab, rng=np.random.default_rng(3))
    loss_b, _, _ = sft_loss(params, sft_batch, vocab, noises=aux.noises)
    assert loss_a == loss_b


def test_sft_empty_batch(cfg, vocab):
    with pytest.raises(EmptyBatch):
        sft_loss(init_params(cfg), [], vocab, rng=np.random.default_rng(0))


def test_sft_grad_check(cfg, vocab, sft_batch):
    params = _randomized_params(cfg, seed=8)
    _, _, aux = sft_loss(params, sft_batch, vocab, rng=np.random.default_rng(1))
    thunk = lambda p: sft_loss(p, sft_batch, vocab, noises=aux.noises)[:2]
    assert grad_check(thunk, params) < 1e-3


@pytest.mark.parametrize("row_block", [256, 9, 1])
def test_packed_sft_matches_per_sequence_oracle(monkeypatch, row_block):
    """One packed pass over the batch gives the loss and gradients of one
    forward and backward per example: pockets with fewer structural vectors
    than the window, more than 256 target rows, and blocks that split
    sequences."""
    from molchord.genmodel import network
    from molchord.synthetic import smiles_corpus

    from .oracles import per_sequence_sft_loss

    monkeypatch.setattr(network, "ROW_BLOCK", row_block)
    cfg = ModelConfig(d=16, d_feat=16, window=4, n_struct_tokens=3, seed=1)
    vocab = cfg.vocabulary()
    params = _randomized_params(cfg, seed=21)
    pockets = [
        featurize_pocket("a", 16, seed=0, n_struct_tokens=1),
        featurize_pocket("b", 16, seed=0, n_struct_tokens=3),
        featurize_pocket("c", 16, seed=0, pocket_sequence="GAVLIKRE"),
    ]
    ligands = smiles_corpus(14, seed=3, min_heavy=12, max_heavy=22)
    batch = [
        SftExample(
            seq=build_interleaved(pockets[i % 3], vocab.encode(smi), vocab),
            complex_vec=complex_feature_vector(pockets[i % 3], smi, seed=0),
        )
        for i, smi in enumerate(ligands)
    ]
    assert sum(len(ex.seq.suffix_ids) for ex in batch) > 256
    noises = tuple(np.random.default_rng(5).standard_normal((len(batch), 16)))

    loss, grads, _ = sft_loss(params, batch, vocab, beta_vae=0.3, noises=noises)
    oracle_loss, oracle_grads = per_sequence_sft_loss(params, batch, vocab, 0.3, noises)
    assert abs(loss - oracle_loss) <= 1e-12 * abs(oracle_loss)
    assert sorted(grads) == sorted(oracle_grads)
    for name, g in grads.items():
        scale = np.abs(oracle_grads[name]).max()
        assert scale > 0, name
        assert np.abs(g - oracle_grads[name]).max() <= 1e-12 * scale, name


# --- preference loss ---------------------------------------------------------


@pytest.fixture(scope="module")
def dpo_example(cfg, vocab, feats):
    pair = PreferencePair("pocket0", "CCO", "CCCCN", 8.0, 6.0)
    ref = _randomized_params(cfg, seed=9)
    return build_dpo_examples([pair], {"pocket0": feats}, ref, vocab, seed=0)[0], ref


def test_dpo_policy_equals_reference_gives_log2(cfg, vocab, dpo_example):
    example, ref = dpo_example
    zero_vae = ref.copy()
    for name in ("vae_mu_w", "vae_mu_b", "vae_logvar_w", "vae_logvar_b"):
        getattr(zero_vae, name)[:] = 0.0
    loss, _, margin = dpo_loss(zero_vae, example, vocab)
    assert margin == 0.0
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_dpo_sigmoid_arithmetic():
    assert -math.log(1.0 / (1.0 + math.exp(-1.0))) == pytest.approx(0.31326, abs=1e-5)


def test_dpo_margin_saturates_to_kl_term(cfg, vocab, dpo_example):
    """A huge positive margin drives the preference term to zero."""
    example, ref = dpo_example
    boosted = DpoExample(
        pocket_id=example.pocket_id,
        chosen_seq=example.chosen_seq,
        rejected_seq=example.rejected_seq,
        complex_vec=example.complex_vec,
        epsilon=example.epsilon,
        ref_chosen=example.ref_chosen,
        ref_rejected=example.ref_rejected,
    )
    # emulate the limit by scaling beta: the loss tends to the KL contribution
    loss, _, margin = dpo_loss(ref, boosted, vocab, beta_dpo=0.1, beta_vae=0.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)  # margin 0 baseline
    big = 1e4
    import molchord.training.losses as losses_mod

    assert losses_mod._log_sigmoid(big) == pytest.approx(0.0, abs=1e-12)


def test_dpo_example_records_reference_logprobs(vocab, dpo_example):
    example, ref = dpo_example
    for seq, recorded in (
        (example.chosen_seq, example.ref_chosen),
        (example.rejected_seq, example.ref_rejected),
    ):
        assert recorded == sequence_forward(ref, seq, vocab, epsilon=example.epsilon)[0]


def test_dpo_matches_four_forward_oracle(cfg, vocab, dpo_example):
    """The recorded reference constants give exactly the margin and loss of
    evaluating policy and reference on every call."""
    example, ref = dpo_example
    for seed, beta in ((12, 0.1), (13, 0.5), (14, 2.0)):
        policy = _randomized_params(cfg, seed=seed)
        loss, _, margin = dpo_loss(policy, example, vocab, beta_dpo=beta, beta_vae=0.0)
        assert (margin, loss) == dpo_margin_oracle(policy, ref, example, vocab, beta)
        assert dpo_loss(policy, example, vocab, beta_dpo=beta)[2] == margin


def test_dpo_grad_check(cfg, vocab, dpo_example):
    example, _ = dpo_example
    policy = _randomized_params(cfg, seed=10)
    thunk = lambda p: dpo_loss(p, example, vocab)[:2]
    assert grad_check(thunk, policy) < 1e-3


def test_dpo_monotone_in_logprob_gap(cfg, vocab, dpo_example):
    """Raising the chosen sequence's log-probability lowers the loss; raising
    the rejected one raises it."""
    example, _ = dpo_example
    policy = _randomized_params(cfg, seed=11)
    base_margin = dpo_loss(policy, example, vocab)[2]

    margins = {}
    for which in ("chosen", "rejected"):
        seq = example.chosen_seq if which == "chosen" else example.rejected_seq
        base_lp, _ = sequence_forward(policy, seq, vocab, epsilon=example.epsilon)
        margins[which] = base_lp
    # margin = beta * ((lp_c - ref_c) - (lp_r - ref_r)) is linear in both
    beta = 0.1
    assert dpo_loss(policy, example, vocab, beta_dpo=beta)[2] == pytest.approx(
        base_margin
    )
    # analytic monotonicity of -log sigmoid
    for delta in (0.5, 1.0, 2.0):
        up = -math.log(1 / (1 + math.exp(-(base_margin + delta))))
        down = -math.log(1 / (1 + math.exp(-(base_margin - delta))))
        assert up < -math.log(1 / (1 + math.exp(-base_margin))) < down


def test_dpo_logratio_shift_invariance():
    """The preference term depends only on the two log-ratios: adding the same
    constant to a policy and its reference log-probability cancels."""
    beta = 0.1

    def pref_loss(lp_c, ref_c, lp_r, ref_r):
        m = beta * ((lp_c - ref_c) - (lp_r - ref_r))
        return -math.log(1 / (1 + math.exp(-m)))

    base = pref_loss(-10.0, -11.0, -12.0, -11.5)
    for shift in (-3.0, 0.7, 42.0):
        assert pref_loss(-10 + shift, -11 + shift, -12, -11.5) == pytest.approx(base)
        assert pref_loss(-10, -11, -12 + shift, -11.5 + shift) == pytest.approx(base)


def test_nondeterministic_thunk_detected(cfg, vocab, sft_batch):
    params = _randomized_params(cfg, seed=12)
    state = {"calls": 0}

    def unstable(p):
        state["calls"] += 1
        loss, grads, _ = sft_loss(
            p, sft_batch, vocab, rng=np.random.default_rng(state["calls"])
        )
        return loss, grads

    with pytest.raises(NonDeterministicLoss):
        grad_check(unstable, params)
