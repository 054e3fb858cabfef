import json
from types import SimpleNamespace

import numpy as np
import pytest

from molchord.curation import PreferencePair
from molchord.genmodel import (
    Grads,
    ModelConfig,
    featurize_pocket,
    load_params,
    save_params,
)
from molchord.training import (
    AdamState,
    EmptyBatch,
    TrainConfig,
    adam_step,
    build_dpo_examples,
    build_sft_examples,
    clip_gradients,
    dpo_loss,
    global_norm,
    is_validation_pocket,
    train_dpo,
    train_sft,
)
from molchord.synthetic import smiles_corpus

from .oracles import (
    per_field_accumulate,
    per_field_adam_step,
    per_field_clip_gradients,
    sgd_step,
)


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(d=16, d_feat=16, window=6, n_struct_tokens=3, seed=2)


@pytest.fixture(scope="module")
def vocab(cfg):
    return cfg.vocabulary()


def _dataset(cfg, vocab, n_pockets=20, per_pocket=5, seed=0):
    corpus = smiles_corpus(n_pockets * per_pocket, seed=seed, min_heavy=3, max_heavy=7)
    feats, ligands = {}, {}
    for i in range(n_pockets):
        pid = f"tp{i:03d}"
        feats[pid] = featurize_pocket(pid, cfg.d_feat, cfg.seed,
                                      n_struct_tokens=cfg.n_struct_tokens)
        ligands[pid] = corpus[i * per_pocket : (i + 1) * per_pocket]
    return build_sft_examples(feats, ligands, vocab, seed=0), feats


# --- optimizer ----------------------------------------------------------------


def _one_field(values) -> Grads:
    flat = np.array(values)
    return Grads(flat, {"a": flat})


def test_clip_gradients():
    grads = _one_field([3.0, 4.0])
    norm = clip_gradients(grads, max_norm=2.5)
    assert norm == 5.0
    assert global_norm(grads) == pytest.approx(2.5)
    grads = _one_field([0.3, 0.4])
    clip_gradients(grads, max_norm=2.5)
    np.testing.assert_allclose(grads["a"], [0.3, 0.4])
    clip_gradients(grads, None)  # disabled
    np.testing.assert_allclose(grads["a"], [0.3, 0.4])
    grads = _one_field([3.0, 4.0])
    clip_gradients(grads, 0.0)  # a clip_norm of 0 disables clipping too
    np.testing.assert_allclose(grads["a"], [3.0, 4.0])


@pytest.mark.parametrize("model", [
    ModelConfig(d=16, window=4, n_struct_tokens=3),  # the README desk model
    ModelConfig(),  # the production defaults
], ids=["desk", "production"])
def test_flat_clip_and_adam_match_the_per_field_oracle_bit_for_bit(model):
    """Batches summed and averaged as ``train_dpo`` forms them, clipped and
    stepped on the one buffer, against the same steps one field at a time on
    separate arrays: parameters and both moments agree in every bit."""
    from molchord.genmodel import init_params

    params = init_params(model)
    reference = SimpleNamespace(**{name: getattr(params, name).copy()
                                   for name in params.array_fields()})
    state, ref_state = AdamState(), {"t": 0, "m": {}, "v": {}}
    rng = np.random.default_rng(11)
    clipped = 0
    for scale in (10.0, 0.01, 3.0, 1e-6, 50.0, 1.0):
        grads = params.zero_grads()
        ref_grads = {name: np.zeros_like(g) for name, g in grads.items()}
        for _ in range(3):
            pair = params.zero_grads()
            pair.flat[:] = rng.standard_normal(pair.flat.size) * scale
            grads.flat += pair.flat
            per_field_accumulate(ref_grads, {name: g.copy() for name, g in pair.items()})
        grads.flat /= 3
        for g in ref_grads.values():
            g /= 3
        norm = clip_gradients(grads, 5.0)
        assert norm == per_field_clip_gradients(ref_grads, 5.0)
        clipped += norm > 5.0
        adam_step(params, grads, state, lr=1e-3)
        per_field_adam_step(reference, ref_grads, ref_state, lr=1e-3)
    assert 0 < clipped < 6 and state.t == ref_state["t"] == 6

    def bits(a):
        return a.view(np.uint64)

    for name in params.array_fields():
        assert np.array_equal(bits(getattr(params, name)), bits(getattr(reference, name))), name
    trainable = params.array_fields()[1:]  # buffer order, after the token embeddings
    for flat, by_name in ((state.m, ref_state["m"]), (state.v, ref_state["v"])):
        expected = np.concatenate([by_name[name].ravel() for name in trainable])
        assert np.array_equal(bits(flat), bits(expected))


def _run_config(tmp_path, text):
    from molchord.cli import build_parser, load_config

    path = tmp_path / "run.ini"
    path.write_text(text)
    return load_config(build_parser().parse_args(["--config", str(path), "verify"]))


def test_train_config_from_section(tmp_path):
    from molchord.cli import ValidationFailure

    cfg = _run_config(tmp_path, (
        "[model]\nseed = 3\n"
        "[train_dpo]\nlearning_rate = 1e-4\nbatch_size = 8\nepochs = 2\nclip_norm = 0\n"
    ))
    assert cfg.train_config("train_dpo") == TrainConfig(
        learning_rate=1e-4, batch_size=8, epochs=2, clip_norm=0.0, seed=3
    )
    for bad in (
        "[train_sft]\nsteps = 1.5", "[train_dpo]\nbeta_dpo = -5", "[train_sft]\nlearning_rate = nan"
    ):
        with pytest.raises(ValidationFailure):
            _run_config(tmp_path, bad + "\n")


def test_sgd_and_adam_move_parameters(cfg):
    from molchord.genmodel import init_params

    params = init_params(cfg)
    before = params.lm_w1.copy()
    sgd_step(params, {"lm_w1": np.ones_like(params.lm_w1)}, lr=0.1)
    np.testing.assert_allclose(params.lm_w1, before - 0.1)
    untouched = params.copy()
    grads = params.zero_grads()
    grads["lm_w1"][...] = 1.0  # every other field's gradient is zero
    state = AdamState()
    adam_step(params, grads, state, lr=0.1)
    assert state.t == 1
    assert not np.allclose(params.lm_w1, before - 0.1)
    for name in params.array_fields():  # a zero gradient moves a field by exactly 0
        if name != "lm_w1":
            np.testing.assert_array_equal(getattr(params, name), getattr(untouched, name))


def test_adam_zero_lr_is_identity(cfg):
    from molchord.genmodel import init_params

    params = init_params(cfg)
    before = params.flat.copy()
    grads = params.zero_grads()
    grads["lm_w1"][...] = 1.0
    adam_step(params, grads, AdamState(), lr=0.0)
    np.testing.assert_array_equal(params.flat, before)


# --- validation split ----------------------------------------------------------


def test_validation_split_stable_and_sized():
    ids = [f"pocket{i}" for i in range(5000)]
    first = {pid for pid in ids if is_validation_pocket(pid)}
    second = {pid for pid in ids if is_validation_pocket(pid)}
    assert first == second
    assert 0.03 < len(first) / len(ids) < 0.07  # ~5%


# --- supervised loop ------------------------------------------------------------


def test_train_sft_reduces_validation_loss(cfg, vocab):
    examples, _ = _dataset(cfg, vocab, n_pockets=30, per_pocket=5)
    config = TrainConfig(steps=150, batch_size=8, eval_interval=25, seed=1)
    checkpoint, curve = train_sft(examples, cfg, config)
    assert curve[0]["step"] == 0
    assert checkpoint.val_loss < curve[0]["val_loss"]
    assert checkpoint.step == min(curve[1:], key=lambda row: row["val_loss"])["step"]


def test_train_sft_deterministic_checkpoints(tmp_path, cfg, vocab):
    examples, _ = _dataset(cfg, vocab, n_pockets=10, per_pocket=4)
    config = TrainConfig(steps=40, batch_size=6, eval_interval=10, seed=5)
    a, _ = train_sft(examples, cfg, config)
    b, _ = train_sft(examples, cfg, config)
    save_params(tmp_path / "a.json", a.params)
    save_params(tmp_path / "b.json", b.params)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_train_sft_empty_dataset(cfg):
    with pytest.raises(EmptyBatch):
        train_sft([], cfg, TrainConfig(steps=1))


def test_checkpoint_reload_reproduces_val_loss(tmp_path, cfg, vocab):
    from molchord.training.loops import _validation_loss

    examples, _ = _dataset(cfg, vocab, n_pockets=10, per_pocket=4)
    config = TrainConfig(steps=30, batch_size=6, eval_interval=10, seed=3)
    checkpoint, _ = train_sft(examples, cfg, config)
    path = tmp_path / "ck.json"
    save_params(path, checkpoint.params, extra={"val_loss": checkpoint.val_loss})
    loaded = load_params(path)
    val = [ex for ex in examples if is_validation_pocket(ex.pocket_id)]
    if not val:
        val = examples[: max(1, len(examples) // 20)]
    reproduced = _validation_loss(loaded, val, vocab, config.beta_vae)
    assert reproduced == json.loads(path.read_text())["extra"]["val_loss"]


def test_validation_loss_runs_no_backward(monkeypatch, cfg, vocab):
    from molchord.genmodel import init_params
    from molchord.training import losses
    from molchord.training.loops import _validation_loss

    backward_calls = []
    real_backward = losses.sequences_backward

    def counting_backward(*args, **kwargs):
        backward_calls.append(1)
        return real_backward(*args, **kwargs)

    monkeypatch.setattr(losses, "sequences_backward", counting_backward)
    examples, _ = _dataset(cfg, vocab, n_pockets=4, per_pocket=2)
    params = init_params(cfg)
    loss = _validation_loss(params, examples, vocab, beta_vae=0.1)
    assert backward_calls == []
    zeros = tuple(np.zeros(cfg.d_feat) for _ in examples)
    assert loss == losses.sft_loss(params, examples, vocab, beta_vae=0.1, noises=zeros)[0]
    assert len(backward_calls) == 1  # the counter does see the batch's packed backward pass


# --- preference loop -------------------------------------------------------------


def _pairs_setup(cfg, vocab):
    examples, feats = _dataset(cfg, vocab, n_pockets=12, per_pocket=4)
    config = TrainConfig(steps=30, batch_size=6, eval_interval=10, seed=4)
    sft_ckpt, _ = train_sft(examples, cfg, config)
    pool = smiles_corpus(40, seed=77, min_heavy=3, max_heavy=7, unique=True)
    pairs = [
        PreferencePair(pid, chosen=pool[2 * i], rejected=pool[2 * i + 1],
                       reward_chosen=8.0, reward_rejected=6.0)
        for i, pid in enumerate(sorted(feats))
    ]
    dpo_examples = build_dpo_examples(pairs, feats, sft_ckpt.params, vocab, seed=0)
    return sft_ckpt, dpo_examples


def test_train_dpo_zero_lr_keeps_checkpoint(cfg, vocab, tmp_path):
    sft_ckpt, dpo_examples = _pairs_setup(cfg, vocab)
    config = TrainConfig(learning_rate=0.0, batch_size=8, seed=1)
    dpo_ckpt, _ = train_dpo(dpo_examples, sft_ckpt.params, config)
    save_params(tmp_path / "sft.json", sft_ckpt.params)
    save_params(tmp_path / "dpo.json", dpo_ckpt.params)
    assert (tmp_path / "sft.json").read_bytes() == (tmp_path / "dpo.json").read_bytes()


def test_train_dpo_single_pass_step_count(cfg, vocab):
    sft_ckpt, dpo_examples = _pairs_setup(cfg, vocab)
    config = TrainConfig(learning_rate=1e-4, batch_size=4, seed=2)
    dpo_ckpt, curve = train_dpo(dpo_examples, sft_ckpt.params, config)
    assert dpo_ckpt.step == len(curve) == (len(dpo_examples) + 3) // 4
    assert all(row["margin"] is not None for row in curve)


def test_train_dpo_raises_margin_on_training_pairs(cfg, vocab):
    sft_ckpt, dpo_examples = _pairs_setup(cfg, vocab)
    config = TrainConfig(learning_rate=5e-3, batch_size=4, epochs=3, seed=3)
    dpo_ckpt, _ = train_dpo(dpo_examples, sft_ckpt.params, config)
    margins = [
        dpo_loss(dpo_ckpt.params, ex, vocab)[2] for ex in dpo_examples
    ]
    assert np.mean(margins) > 0.0


def test_single_pair_loss_strictly_decreases(cfg, vocab):
    """Repeated descent on one pair: the preference term is smooth and the
    small-step path is monotone."""
    sft_ckpt, dpo_examples = _pairs_setup(cfg, vocab)
    example = dpo_examples[0]
    params = sft_ckpt.params.copy()
    losses = []
    for _ in range(10):
        loss, grads, _ = dpo_loss(params, example, vocab, beta_vae=0.0)
        losses.append(loss)
        sgd_step(params, grads, lr=1e-3)
    final, _, _ = dpo_loss(params, example, vocab, beta_vae=0.0)
    losses.append(final)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_dpo_empty(cfg, vocab):
    sft_ckpt, _ = _pairs_setup(cfg, vocab)
    with pytest.raises(EmptyBatch):
        train_dpo([], sft_ckpt.params, TrainConfig(learning_rate=1e-4, batch_size=8))
