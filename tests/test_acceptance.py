"""Acceptance suite: one test per exit criterion, each printing a verdict line
and holding its stated runtime budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import multiprocessing
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from molchord import metrics
from molchord.cli import main as cli_main
from molchord.curation import PreferencePair, diversity_filter, reward
from molchord.genmodel import (
    ModelConfig,
    build_interleaved,
    complex_feature_vector,
    featurize_pocket,
    init_params,
    sample_many,
    sample_seed,
)
from molchord.molgraph import (
    canonical_smiles,
    count_fused_rings,
    morgan_fingerprint,
    parse_smiles,
)
from molchord.scorers import dump_records
from molchord.synthetic import smiles_corpus, synthetic_complexes
from molchord.training import (
    SftExample,
    build_dpo_examples,
    dpo_loss,
    grad_check,
    kl_gaussian,
    sft_loss,
)

from .oracles import (
    alignment_loss,
    brute_diversity,
    component_count,
    cyclomatic_number,
    fingerprint_from_bits,
    fused_ring_count_oracle,
    lm_logits,
    on_bits,
    permute_atoms,
)

DOCK_STUB = (
    "printf '%s' '{smiles}' | cksum | "
    "awk '{ printf \"-%.2f\\n\", 4 + ($1 % 800) / 100.0 }'"
)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


# -- 1 -------------------------------------------------------------------------


def test_acceptance_1_published_constants():
    with _Budget("1 published-constant suite", 1.0):
        tol = 1e-9
        assert abs(metrics.sa_normalize(10.0) - 0.0) < tol
        assert abs(metrics.sa_normalize(1.0) - 1.0) < tol
        assert metrics.success_gate(0.25, 0.60, -9.00) is False
        assert metrics.success_gate(0.30, 0.59, -9.00) is False
        assert metrics.success_gate(0.30, 0.60, -8.18) is False
        assert metrics.success_gate(0.25, 0.59, -8.18) is False
        assert abs(reward(-8.0, 4, 0.5) - 7.0) < tol
        assert abs(kl_gaussian(np.zeros(3), np.zeros(3))) < tol

        cfg = ModelConfig(d=8, d_feat=8, window=3, n_struct_tokens=2, seed=0)
        vocab = cfg.vocabulary()
        params = init_params(cfg)  # zero variational head: KL contributes 0
        feats = featurize_pocket("p", 8, seed=0, n_struct_tokens=2)
        example = build_dpo_examples(
            [PreferencePair("p", "CCO", "CCN", 2.0, 1.0)], {"p": feats}, params, vocab, 0
        )[0]
        loss, _, margin = dpo_loss(params, example, vocab)
        assert margin == 0.0
        assert abs(loss - math.log(2.0)) < tol

        homologous = metrics.PocketEval(
            "h", (metrics.ScoreRecord("h", "CCO", vina=-8.49),), homology="homologous"
        )
        non_homologous = metrics.PocketEval(
            "n", (metrics.ScoreRecord("n", "CCO", vina=-8.66),), homology="non_homologous"
        )
        summary = metrics.ood_report([homologous, non_homologous])
        assert abs(summary.delta - 0.17) < tol
        assert summary.homologous_mean == -8.49
        assert summary.non_homologous_mean == -8.66


# -- 2 -------------------------------------------------------------------------


def test_acceptance_2_fused_ring_oracle():
    with _Budget("2 ring-oracle equivalence", 30.0):
        corpus = smiles_corpus(500, seed=2024, min_heavy=3, max_heavy=12)
        agree = 0
        for smiles in corpus:
            mol = parse_smiles(smiles)
            assert len(mol.atoms) <= 12 and component_count(mol) == 1
            oracle = fused_ring_count_oracle(
                len(mol.atoms), [b.key() for b in mol.bonds]
            )
            assert count_fused_rings(mol) == oracle, smiles
            agree += 1
        assert agree == 500


# -- 3 -------------------------------------------------------------------------


def test_acceptance_3_canonicalization():
    with _Budget("3 canonicalization", 120.0):
        corpus = smiles_corpus(1000, seed=31, min_heavy=3, max_heavy=14, unique=True)
        rng = np.random.default_rng(77)
        canonicals = set()
        for smiles in corpus:
            mol = parse_smiles(smiles)
            reference = canonical_smiles(mol)
            canonicals.add(reference)
            for _ in range(100):
                perm = list(rng.permutation(len(mol.atoms)))
                permuted = permute_atoms(mol, perm)
                assert canonical_smiles(permuted) == reference, smiles
            back = parse_smiles(reference)
            assert len(back.atoms) == len(mol.atoms)
            assert len(back.bonds) == len(mol.bonds)
            assert cyclomatic_number(back) == cyclomatic_number(mol)
            assert count_fused_rings(back) == count_fused_rings(mol)
        assert len(canonicals) == 1000  # distinct molecules stay distinct


# -- 4 -------------------------------------------------------------------------


def test_acceptance_4_diversity_oracle():
    with _Budget("4 diversity/similarity oracle", 10.0):
        rng = np.random.default_rng(4)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            sets = [
                set(map(int, rng.integers(0, 256, size=rng.integers(0, 40))))
                for _ in range(n)
            ]
            fps = [fingerprint_from_bits(s, 256) for s in sets]
            assert abs(metrics.diversity(fps) - brute_diversity(sets)) <= 1e-12

        pool = smiles_corpus(400, seed=41, min_heavy=3, max_heavy=10)
        for trial in range(200):
            n = int(rng.integers(2, 30))
            candidates = [pool[i] for i in rng.integers(0, len(pool), size=n)]
            decision = diversity_filter([parse_smiles(s) for s in candidates], threshold=0.8)
            oracle_sets = [
                set(on_bits(morgan_fingerprint(parse_smiles(s)))) for s in candidates
            ]
            assert decision.keep == (brute_diversity(oracle_sets) > 0.8)


# -- 5 -------------------------------------------------------------------------


def test_acceptance_5_gradient_checks():
    with _Budget("5 gradient checks", 60.0):
        cfg = ModelConfig(d=16, d_feat=16, window=3, n_struct_tokens=2, seed=0)
        vocab = cfg.vocabulary()
        feats = featurize_pocket("p", 16, seed=0, n_struct_tokens=2)
        texts = ["C", "CO", "CC"]
        seqs = [
            build_interleaved(feats, vocab.encode(t), vocab)
            for t in texts
        ]
        batch = [
            SftExample(seq=s, complex_vec=complex_feature_vector(feats, t, seed=0))
            for s, t in zip(seqs, texts)
        ]

        def randomized(seed):
            params = init_params(cfg)
            rng = np.random.default_rng(seed)
            for name in params.array_fields():
                arr = getattr(params, name)
                arr += rng.standard_normal(arr.shape) * 0.4 / max(
                    1.0, np.sqrt(arr.shape[-1])
                )
            return params

        ref = randomized(999)
        example = build_dpo_examples(
            [PreferencePair("p", "CO", "CC", 2.0, 1.0)], {"p": feats}, ref, vocab, 0
        )[0]
        _, _, aux = sft_loss(randomized(0), batch, vocab, rng=np.random.default_rng(0))

        worst_loss = 0.0
        worst_kl = 0.0
        for point in range(20):
            params = randomized(point)
            worst_loss = max(
                worst_loss,
                grad_check(
                    lambda p: alignment_loss(p, seqs, vocab),
                    params,
                    loss_fn=lambda p: alignment_loss(p, seqs, vocab, compute_grads=False)[0],
                    max_coords_per_field=20,
                    seed=point,
                ),
                grad_check(
                    lambda p: sft_loss(p, batch, vocab, noises=aux.noises)[:2],
                    params,
                    loss_fn=lambda p: sft_loss(
                        p, batch, vocab, noises=aux.noises, compute_grads=False
                    )[0],
                    max_coords_per_field=20,
                    seed=point,
                ),
                grad_check(
                    lambda p: dpo_loss(p, example, vocab)[:2],
                    params,
                    loss_fn=lambda p: dpo_loss(
                        p, example, vocab, compute_grads=False
                    )[0],
                    max_coords_per_field=20,
                    seed=point,
                ),
            )
            # closed-form KL against its own finite differences
            rng = np.random.default_rng(point)
            mu = rng.standard_normal(6)
            log_var = rng.standard_normal(6)
            from molchord.training import kl_gaussian_grads

            d_mu, d_lv = kl_gaussian_grads(mu, log_var)
            h = 1e-6
            for vec, grad in ((mu, d_mu), (log_var, d_lv)):
                for j in range(6):
                    orig = vec[j]
                    vec[j] = orig + h
                    up = kl_gaussian(mu, log_var)
                    vec[j] = orig - h
                    down = kl_gaussian(mu, log_var)
                    vec[j] = orig
                    numeric = (up - down) / (2 * h)
                    rel = abs(numeric - grad[j]) / max(1, abs(numeric), abs(grad[j]))
                    worst_kl = max(worst_kl, rel)
        assert worst_loss < 1e-3, worst_loss
        assert worst_kl < 1e-6, worst_kl


# -- 6 -------------------------------------------------------------------------


def test_acceptance_6_preference_training_improves_rewards():
    from molchord.experiment import ExperimentConfig, run_preference_experiment

    with _Budget("6 preference-training experiment", 600.0):
        result = run_preference_experiment(ExperimentConfig(seed=0))
        assert result.sft_val_best < result.sft_val_start
        assert result.n_pairs_held_out == 50
        assert result.fraction_improved >= 0.80, result.fraction_improved
        assert result.mean_margin_held_out > 0.0, result.mean_margin_held_out


# -- 7 -------------------------------------------------------------------------


def _first_noises(base_seed: int, pocket_id: str, n: int, d_feat: int) -> np.ndarray:
    """The conditioning noise of draws 0..n-1, recomputed from each draw's
    stream: its first ``d_feat`` standard-normal values."""
    return np.array([
        np.random.default_rng(sample_seed(base_seed, pocket_id, i)).standard_normal(d_feat)
        for i in range(n)
    ])


def test_acceptance_7_sampling_contract():
    with _Budget("7 sampling contract", 60.0):
        cfg = ModelConfig(d=16, d_feat=16, window=4, n_struct_tokens=3, seed=5)
        vocab = cfg.vocabulary()
        params = init_params(cfg)
        rng = np.random.default_rng(1)
        params.lm_out_w[:] = rng.standard_normal(params.lm_out_w.shape) * 0.7
        params.lm_out_b[:] = rng.standard_normal(params.lm_out_b.shape) * 0.3
        feats = featurize_pocket("pocketS", 16, seed=0, n_struct_tokens=3)

        # first tokens of production draws, each under its own noise; a worker
        # process recomputes the noises while the sampler draws
        n_draws = 100_000
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            noises = pool.submit(_first_noises, 123, feats.pocket_id, n_draws, cfg.d_feat)
            (results,) = sample_many(
                params, [feats], vocab, n_draws, base_seed=123, temperature=1.0, top_p=1.0,
                max_len=1,
            )
            noise = noises.result()
        counts = np.bincount([res.token_ids[0] for res in results], minlength=vocab.size)

        # each draw's first-step distribution, in batched passes over the
        # stacked conditioning rows; the count of a token is a sum of
        # independent Bernoulli variables, with variance sum p(1 - p)
        from molchord.genmodel.network import adapter_forward
        from molchord.genmodel.sampling import _initial_window

        window = _initial_window(
            adapter_forward(feats.vectors, params),
            params.token_embedding[vocab.pad_id],
            cfg.window,
        )
        mean = np.zeros(vocab.size)
        variance = np.zeros(vocab.size)
        for s in range(0, n_draws, 20_000):
            probs = lm_logits(window, adapter_forward(feats.pooled + noise[s : s + 20_000], params),
                              params)
            mean += probs.sum(axis=0)
            variance += (probs * (1 - probs)).sum(axis=0)
        # 4.5 sigma per token: a correct sampler fails it with probability
        # under 3e-4 over all tokens together
        z = (counts - mean) / np.sqrt(variance)
        assert np.all(np.abs(z) <= 4.5), (np.abs(z).max(), int(np.abs(z).argmax()))

        # the same counts reject one shared zero noise for every draw
        shared = lm_logits(window, adapter_forward(feats.pooled, params), params)
        z_shared = (counts - n_draws * shared) / np.sqrt(n_draws * shared * (1 - shared))
        assert np.abs(z_shared).max() > 4.5, np.abs(z_shared).max()

        # byte-identical reruns
        (again,) = sample_many(
            params, [feats], vocab, 64, base_seed=9, temperature=1.0, top_p=1.0, max_len=256
        )
        assert [again] == sample_many(
            params, [feats], vocab, 64, base_seed=9, temperature=1.0, top_p=1.0, max_len=256
        )
        # a draw ends at its first EOS, or at the default cap when none arrives
        for res in again:
            assert vocab.eos_id not in res.token_ids[:-1]
            assert res.token_ids[-1] == vocab.eos_id or len(res.token_ids) == 256


# -- 8 -------------------------------------------------------------------------


def _fixture_config(tmp_path: Path, complexes: Path, outdir: Path, cache: Path) -> Path:
    lines = f"""
[paths]
complexes = {complexes}
outdir = {outdir}

[model]
d = 16
d_feat = 16
window = 4
n_struct = 3
seed = 0

[sample]
temperature = 1.0
top_p = 0.95
max_len = 40
n_eval = 5
retry_factor = 20

[train_sft]
steps = 400
batch_size = 8
eval_interval = 50

[curate]
filter_samples = 24
pair_candidates = 16
pair_docked = 4

[metrics]
top_k = 2

[dock]
command = {DOCK_STUB}
timeout = 30
cache_dir = {cache}
"""
    path = tmp_path / "fixture.ini"
    path.write_text(lines)
    return path


def test_acceptance_8_partition_rule_and_pipeline_determinism(tmp_path):
    with _Budget("8 partition rule + pipeline determinism", 600.0):
        # partition counts on a 10k-record dataset vs a direct recount
        big = tmp_path / "big_complexes.jsonl"
        records = synthetic_complexes(10_000, seed=88, max_heavy=8)
        dump_records(big, records)
        outdir = tmp_path / "big_out"
        config = _fixture_config(tmp_path, big, outdir, tmp_path / "cache0")
        assert cli_main(["--config", str(config), "partition"]) == 0
        payload = json.loads((outdir / "partition.json").read_text())
        expected_sft = sum(
            1
            for line in big.read_text().splitlines()
            if len(set(json.loads(line)["ligand_smiles"])) > 2
        )
        assert payload["counts"]["sft"] == expected_sft
        assert payload["counts"]["sft"] + payload["counts"]["dpo"] == 10_000

        # full fixture pipeline twice into the same outdir: identical bytes
        fixture = tmp_path / "complexes.jsonl"
        dump_records(fixture, synthetic_complexes(50, seed=4, max_heavy=7))
        run_dir = tmp_path / "run"
        cache = tmp_path / "dock_cache"
        config = _fixture_config(tmp_path, fixture, run_dir, cache)
        steps = [
            ["partition"], ["train-sft"], ["curate"], ["train-dpo"], ["sample"],
            ["dock"], ["evaluate"], ["report", "--fused", "--ood"],
        ]
        artifacts = [
            "partition.json", "sft_checkpoint.json", "sft_curve.jsonl", "pairs.jsonl",
            "d_dpo.json", "dpo_checkpoint.json", "dpo_curve.jsonl", "generations.jsonl",
            "scores.jsonl", "report.jsonl", "report.txt", "fused_report.json",
            "ood_report.json",
        ]

        def run_pipeline() -> dict[str, bytes]:
            if run_dir.exists():
                shutil.rmtree(run_dir)
            for step in steps:
                code = cli_main(["--config", str(config), "--allow-partial", *step])
                assert code == 0, f"{step} exited {code}"
            return {name: (run_dir / name).read_bytes() for name in artifacts}

        first = run_pipeline()
        second = run_pipeline()
        for name in artifacts:
            assert first[name] == second[name], f"{name} differs between reruns"
