import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from molchord.curation import (
    ComplexRecord,
    CurationAudit,
    DegeneratePool,
    DuplicatePocketId,
    PreferencePair,
    ScoredMolecule,
    TooFewCandidates,
    build_pair_set,
    build_preference_pairs,
    curate_dpo_set,
    diversity_filter,
    partition_dataset,
    reward,
)
from molchord.molgraph import parse_smiles
from molchord.synthetic import smiles_corpus


def _mols(smiles):
    return [parse_smiles(s) for s in smiles]


def _record(pocket_id, ligands):
    return ComplexRecord(pocket_id=pocket_id, ligand_smiles=tuple(ligands))


def test_partition_threshold_is_strict():
    records = [
        _record("three", ["CCO", "CCN", "CCC"]),
        _record("two", ["CCO", "CCN"]),
        _record("one", ["CCO"]),
        _record("four", ["CCO", "CCN", "CCC", "CCCC"]),
    ]
    partition = partition_dataset(records)
    assert set(partition.sft_pool) == {"three", "four"}
    assert set(partition.dpo_pool) == {"two", "one"}
    assert len(partition.sft_pool) + len(partition.dpo_pool) == len(records)


def test_partition_five_pocket_example():
    pool = ["CCO", "CCN", "CCC", "CCCC", "c1ccccc1"]
    counts = [3, 3, 2, 1, 4]
    records = [_record(f"p{i}", pool[:c]) for i, c in enumerate(counts)]
    partition = partition_dataset(records)
    assert len(partition.sft_pool) == 3
    assert len(partition.dpo_pool) == 2


def test_partition_counts_distinct_canonical_ligands():
    # three entries but only two distinct molecules
    record = _record("dup", ["CCO", "OCC", "CCN"])
    partition = partition_dataset([record])
    assert partition.dpo_pool == ("dup",)


def test_partition_duplicate_pocket():
    with pytest.raises(DuplicatePocketId):
        partition_dataset([_record("a", ["C"]), _record("a", ["CC"])])


def test_partition_order_invariant():
    records = [
        _record(f"p{i}", ["CCO", "CCN", "CCC"][: 1 + i % 3]) for i in range(12)
    ]
    fwd = partition_dataset(records)
    rev = partition_dataset(records[::-1])
    assert fwd == rev


def test_diversity_filter_identical_dropped():
    decision = diversity_filter(_mols(["CCO"] * 100))
    assert decision.keep is False
    assert decision.diversity == 0.0


def test_diversity_filter_diverse_kept():
    candidates = smiles_corpus(40, seed=5, min_heavy=3, max_heavy=10, unique=True)
    decision = diversity_filter(_mols(candidates))
    assert decision.diversity > 0.8
    assert decision.keep is True


def test_diversity_filter_strict_at_threshold():
    pair = ["CCO", "CCN"]
    measured = diversity_filter(_mols(pair), threshold=0.0).diversity
    # a measured value exactly equal to the threshold must drop
    assert diversity_filter(_mols(pair), threshold=measured).keep is False
    assert diversity_filter(_mols(["CCO", "CCO"]), threshold=0.0).keep is False  # 0 > 0 fails


def test_diversity_filter_too_few():
    with pytest.raises(TooFewCandidates):
        diversity_filter(_mols(["CCO"]))


def test_diversity_filter_permutation_invariant(rng):
    candidates = smiles_corpus(30, seed=9, min_heavy=3, max_heavy=8)
    base = diversity_filter(_mols(candidates))
    for _ in range(3):
        shuffled = [candidates[i] for i in rng.permutation(len(candidates))]
        assert diversity_filter(_mols(shuffled)) == base


def test_reward_values():
    assert reward(-8.0, 2, 0.5) == 8.0
    assert reward(-8.0, 4, 0.5) == 7.0
    assert reward(0.0, 0, 0.5) == 0.0
    for lam in (-0.5, float("nan"), float("inf")):  # NaN and inf would reach the pairs
        with pytest.raises(ValueError):
            reward(-8.0, 4, lam)


@given(
    st.floats(min_value=-15, max_value=0),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
)
def test_reward_monotonicity(vina, fused_a, fused_b):
    lam = 0.5
    assert reward(vina, fused_a, lam) == pytest.approx(
        reward(vina - 1.0, fused_a, lam) - 1.0
    )
    if fused_a <= fused_b:
        assert reward(vina, fused_a, lam) >= reward(vina, fused_b, lam)
    if fused_a <= 2:
        assert reward(vina, fused_a, lam) == -vina


def test_build_pairs_argmax_argmin():
    scored = [
        ScoredMolecule("CCO", vina=-8.0, fused_count=0),   # reward 8.0
        ScoredMolecule("CCN", vina=-7.0, fused_count=0),   # reward 7.0
        ScoredMolecule("CCC", vina=-6.5, fused_count=0),   # reward 6.5
    ]
    pair = build_preference_pairs("p", scored)
    assert pair.chosen == "CCO"
    assert pair.rejected == "CCC"
    assert pair.reward_chosen == 8.0
    assert pair.reward_rejected == 6.5


def test_build_pairs_reward_bounds_every_member():
    rng = np.random.default_rng(3)
    scored = [
        ScoredMolecule(s, vina=float(-rng.uniform(4, 10)), fused_count=int(rng.integers(0, 5)))
        for s in smiles_corpus(20, seed=11, unique=True)
    ]
    pair = build_preference_pairs("p", scored)
    rewards = [reward(s.vina, s.fused_count) for s in scored]
    assert all(pair.reward_chosen >= r >= pair.reward_rejected for r in rewards)


def test_build_pairs_tie_broken_lexicographically():
    scored = [
        ScoredMolecule("CCN", vina=-8.0, fused_count=0),
        ScoredMolecule("CCC", vina=-8.0, fused_count=0),
    ]
    pair = build_preference_pairs("p", scored)
    assert pair.chosen == "CCC"  # lexicographically smaller wins the chosen slot
    assert pair.rejected == "CCN"


def test_build_pairs_duplicate_molecule_not_paired_with_itself():
    scored = [
        ScoredMolecule("CCO", vina=-9.0, fused_count=0),
        ScoredMolecule("CCO", vina=-5.0, fused_count=0),
        ScoredMolecule("CCN", vina=-7.0, fused_count=0),
    ]
    pair = build_preference_pairs("p", scored)
    assert pair.chosen == "CCO"
    assert pair.rejected == "CCN"


def test_build_pairs_degenerate_pool():
    with pytest.raises(DegeneratePool):
        build_preference_pairs("p", [ScoredMolecule("CCO", -8.0, 0)] * 3)


def test_preference_pair_invariants():
    with pytest.raises(ValueError):
        PreferencePair("p", "CCO", "CCO", 1.0, 0.0)
    with pytest.raises(ValueError):
        PreferencePair("p", "CCO", "CCN", 0.0, 1.0)


def test_curate_deterministic_sampler_dropped():
    result = curate_dpo_set(["p1"], lambda pids, n: [["CCO"] * n for _ in pids], n_samples=20)
    assert result.selected == ()
    assert result.audit[0].kept is False
    assert result.audit[0].diversity == 0.0


def test_curate_random_sampler_kept():
    from molchord.hashutil import derive_seed

    pool = smiles_corpus(300, seed=21, min_heavy=3, max_heavy=10)

    def sampler(pocket_ids, n):
        rngs = [np.random.default_rng(derive_seed("curate-test", p)) for p in pocket_ids]
        return [[pool[i] for i in rng.integers(0, len(pool), size=n)] for rng in rngs]

    result = curate_dpo_set(["a", "b"], sampler, n_samples=50)
    assert set(result.selected) == {"a", "b"}
    for row in result.audit:
        assert row.diversity is not None and row.diversity > 0.8


def test_curate_empty_pool():
    result = curate_dpo_set([], lambda pids, n: [[] for _ in pids], n_samples=10)
    assert result.selected == ()
    assert result.audit == ()


def test_curate_sampler_error_recorded():
    def broken(pocket_ids, n):
        raise RuntimeError("sampler exploded")

    result = curate_dpo_set(["p1", "p2"], broken)
    assert result.selected == ()
    # one call draws every pocket, so its error drops every pocket
    assert result.audit == tuple(
        CurationAudit(p, False, None, 0, "sampler error: sampler exploded") for p in ("p1", "p2")
    )


def test_curate_too_few_valid_dropped():
    result = curate_dpo_set(["p1"], lambda pids, n: [["not-a-molecule"] * n for _ in pids])
    assert result.selected == ()
    assert "valid" in result.audit[0].reason


def test_curate_parses_each_candidate_once_and_quietly(monkeypatch):
    """The filter fingerprints the molecules that validity screening parsed:
    one parse per candidate, and no feature warning for a stereo mark."""
    import warnings

    from molchord import curation
    from molchord.molgraph import SmilesFeatureWarning, parser

    parsed = []
    real_parse = parser.parse_smiles

    def counting_parse(text, *args, **kwargs):
        parsed.append(text)
        return real_parse(text, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_smiles", counting_parse)
    monkeypatch.setattr(curation, "parse_smiles", counting_parse)
    candidates = ["C/C=C/CO", "N[C@@H](C)C(=O)O", "c1ccccc1O", "not-a-molecule"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = curate_dpo_set(["p1"], lambda pids, n: [candidates], n_samples=4)
    assert result.audit[0].n_valid == 3
    assert sorted(parsed) == sorted(candidates)
    assert not [w for w in caught if issubclass(w.category, SmilesFeatureWarning)]


# --- the shared sample -> score -> pair loop ------------------------------------


def _fixed_sampler(texts_by_pocket, requests=None):
    def sampler(pocket_ids, n):
        if requests is not None:
            requests.append((list(pocket_ids), n))
        return [texts_by_pocket[p] for p in pocket_ids]

    return sampler


def _fake_scorer(calls, failing=()):
    """Scores by molecule length (longer scores better); fails the listed SMILES."""

    def scorer(requests):
        calls.append(list(requests))
        rows = [(p, s, -float(len(s))) for p, s in requests if s not in failing]
        errors = [(p, f"dock command exited 3: {s}") for p, s in requests if s in failing]
        return rows, errors

    return scorer


def test_pair_set_status_rows():
    texts = {
        "few": ["not-a-molecule", "CCO", "(("],
        "failed": ["CCO", "CCN", "CCCC"],
        "ok": ["CCO", "CCCC"],
    }
    calls = []
    pairs, log = build_pair_set(
        ["few", "failed", "ok"], _fixed_sampler(texts), _fake_scorer(calls, {"CCN", "CCCC"}),
        n_candidates=10, n_scored=5,
    )
    assert log == [
        {"pocket_id": "few", "status": "too few valid candidates"},
        {"pocket_id": "failed", "status": "dock failure: dock command exited 3: CCN"},
        {"pocket_id": "failed", "status": "dock failure: dock command exited 3: CCCC"},
        {"pocket_id": "failed", "status": "fewer than 2 scored molecules"},
        {"pocket_id": "ok", "status": "dock failure: dock command exited 3: CCCC"},
        {"pocket_id": "ok", "status": "fewer than 2 scored molecules"},
    ]
    assert pairs == []
    # one scorer call for every pocket; "few" never reaches the scorer
    assert calls == [[("failed", "CCO"), ("failed", "CCN"), ("failed", "CCCC"),
                      ("ok", "CCO"), ("ok", "CCCC")]]

    pairs, log = build_pair_set(
        ["ok"], _fixed_sampler(texts), _fake_scorer([]), n_candidates=10, n_scored=5
    )
    assert log == [{"pocket_id": "ok", "status": "paired"}]
    assert pairs == [PreferencePair("ok", "CCCC", "CCO", 4.0, 3.0)]


def test_pair_set_pairs_despite_a_dock_failure():
    pairs, log = build_pair_set(
        ["p"], _fixed_sampler({"p": ["CCO", "CCN", "CCCC"]}), _fake_scorer([], {"CCN"}),
        n_candidates=3, n_scored=3,
    )
    assert log == [
        {"pocket_id": "p", "status": "dock failure: dock command exited 3: CCN"},
        {"pocket_id": "p", "status": "paired"},
    ]
    assert pairs == [PreferencePair("p", "CCCC", "CCO", 4.0, 3.0)]


def test_pair_set_scores_first_valid_canonical_in_order():
    texts = ["bad((", "OCC", "C1CC1", "OCC", "NCC", "CCCC"]
    requests, calls = [], []
    build_pair_set(
        ["p"], _fixed_sampler({"p": texts}, requests), _fake_scorer(calls),
        n_candidates=32, n_scored=3,
    )
    assert requests == [(["p"], 32)]
    # duplicates kept, "NCC" not reached
    assert calls == [[("p", "CCO"), ("p", "C1CC1"), ("p", "CCO")]]


def test_pair_set_counts_fused_rings_once_per_distinct_scored_string(monkeypatch):
    from molchord import curation
    from molchord.molgraph import canon, parser

    parsed = []
    real_parse = parser.parse_smiles

    def counting_parse(text, *args, **kwargs):
        parsed.append(text)
        return real_parse(text, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_smiles", counting_parse)
    monkeypatch.setattr(canon, "parse_smiles", counting_parse)
    monkeypatch.setattr(curation, "parse_smiles", counting_parse)
    # 6 candidates of 4 distinct molecules; "c1ccc2ccccc2c1" is scored in both pockets
    texts = {"p": ["OCC", "CCO", "c1ccc2ccccc2c1", "C1CC1"], "q": ["c1ccc2ccccc2c1", "CCN"]}
    pairs, log = build_pair_set(
        ["p", "q"], _fixed_sampler(texts), _fake_scorer([]), n_candidates=4, n_scored=4
    )
    assert [row["status"] for row in log] == ["paired", "paired"]
    assert pairs[0].chosen == "c1ccc2ccccc2c1"
    # each distinct raw string once to canonicalize it, each distinct scored
    # string once more for its fused count
    raw = ["OCC", "CCO", "c1ccc2ccccc2c1", "C1CC1", "CCN"]
    assert sorted(parsed) == sorted(raw + ["CCO", "c1ccc2ccccc2c1", "C1CC1", "CCN"])


def test_pair_set_two_spellings_are_one_candidate():
    calls = []
    pairs, log = build_pair_set(
        ["p"], _fixed_sampler({"p": ["OCC", "CCO"]}), _fake_scorer(calls),
        n_candidates=2, n_scored=2,
    )
    assert pairs == []
    assert log == [{"pocket_id": "p", "status": "too few valid candidates"}]
    assert calls == []


def test_pair_set_with_the_experiment_scorer_pairs_canonical_smiles():
    from molchord.experiment import surrogate_scores, surrogate_vina
    from molchord.molgraph import canonical_smiles, count_fused_rings, parse_smiles

    # every molecule has 3 heavy atoms, so the surrogate ties them all and
    # the pair is decided by the canonical strings alone
    texts = ["OCC", "NCC", "SCC", "C(C)C", "invalid(", "C1CC1", "OC=C"]
    pairs, log = build_pair_set(
        ["p"], _fixed_sampler({"p": texts}), surrogate_scores,
        n_candidates=len(texts), n_scored=len(texts), lam=0.5,
    )
    canon = [canonical_smiles(parse_smiles(t)) for t in texts if t != "invalid("]
    scored = [
        ScoredMolecule(c, surrogate_vina(parse_smiles(c)), count_fused_rings(parse_smiles(c)))
        for c in canon
    ]
    assert log == [{"pocket_id": "p", "status": "paired"}]
    assert pairs == [build_preference_pairs("p", scored, lam=0.5)]
    assert {pairs[0].chosen, pairs[0].rejected} <= set(canon)


def test_pair_set_counts_a_string_over_the_work_cap_as_invalid(monkeypatch):
    from molchord.molgraph import canon

    monkeypatch.setattr(canon, "_MAX_WORK", 0)
    calls = []
    pairs, log = build_pair_set(
        ["p", "q"],
        _fixed_sampler({"p": ["CC(C)(C)C", "CCO", "CCCN"], "q": ["CC(C)(C)C", "CCO"]}),
        _fake_scorer(calls),
        n_candidates=3, n_scored=3,
    )
    assert log == [
        {"pocket_id": "p", "status": "paired"},
        {"pocket_id": "q", "status": "too few valid candidates"},
    ]
    assert calls == [[("p", "CCO"), ("p", "CCCN")]]
    assert pairs == [PreferencePair("p", "CCCN", "CCO", 4.0, 3.0)]


# a 6-pocket experiment that curates 4 pairs and trains on 3 of them
_SIX_POCKETS = dict(
    n_pockets=6, corpus_size=60, sft_pockets=6, held_out_pairs=1, eval_samples=4,
    filter_samples=24, sft_steps=200, d=8, d_feat=8, window=4, n_struct=2, max_len=24,
    diversity_threshold=0.0,
)


def test_preference_experiment_samples_each_pocket_once(monkeypatch):
    from molchord import experiment

    real = experiment.sample_many
    draws = []

    def counting(params, pockets, vocab, n, **kwargs):
        draws.append(([f.pocket_id for f in pockets], n, kwargs["base_seed"]))
        return real(params, pockets, vocab, n, **kwargs)

    monkeypatch.setattr(experiment, "sample_many", counting)
    cfg = experiment.ExperimentConfig(**_SIX_POCKETS)
    result = experiment.run_preference_experiment(cfg)
    pockets = [f"pref{i:05d}" for i in range(6)]
    curate_seed = experiment.derive_seed("experiment-curate", cfg.seed)
    eval_seed = experiment.derive_seed("experiment-eval", cfg.seed)
    # curation draws every pocket once; pair construction reuses those draws;
    # the evaluation before and after training draws every pocket in one call each
    assert result.n_selected_pockets >= 2
    assert draws == [(pockets, 24, curate_seed), (pockets, 4, eval_seed), (pockets, 4, eval_seed)]


def test_preference_experiment_without_a_training_pair_raises():
    # 4 pairs, every one of them held out: train_dpo would get none
    from molchord.experiment import ExperimentConfig, run_preference_experiment

    cfg = ExperimentConfig(**{**_SIX_POCKETS, "held_out_pairs": 6})
    with pytest.raises(ValueError, match="made 4 preference pairs and held_out_pairs is 6"):
        run_preference_experiment(cfg)
