import hashlib

import numpy as np
import pytest

from molchord import synthetic
from molchord.molgraph import parse_smiles, validate_valence
from molchord.scorers import dump_records
from molchord.synthetic import (
    random_molecule,
    smiles_corpus,
    synthetic_complexes,
)

from .oracles import component_count, grow_chain_reference


def test_generated_molecules_are_valid_and_bounded():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mol = random_molecule(rng, min_heavy=3, max_heavy=12)
        assert 3 <= len(mol.atoms) <= 12
        assert validate_valence(mol) == []
        assert component_count(mol) == 1


def test_an_empty_heavy_atom_range_raises_instead_of_retrying(deadline):
    # every generated molecule has at least two heavy atoms
    with deadline(5):
        with pytest.raises(ValueError, match="4 to 3 heavy atoms"):
            smiles_corpus(5, seed=0, min_heavy=4, max_heavy=3)
        with pytest.raises(ValueError, match="1 to 1 heavy atoms"):
            random_molecule(np.random.default_rng(0), 1, 1)
        assert len(random_molecule(np.random.default_rng(0), 2, 2).atoms) == 2


def test_corpus_deterministic_and_parseable():
    a = smiles_corpus(50, seed=8)
    b = smiles_corpus(50, seed=8)
    assert a == b
    for smiles in a:
        parse_smiles(smiles)
    distinct = smiles_corpus(50, seed=8, unique=True)
    assert len(set(distinct)) == 50


def test_synthetic_complexes_shape():
    records = synthetic_complexes(20, seed=2, with_sequences=True)
    assert len({r.pocket_id for r in records}) == 20
    for record in records:
        assert len(set(record.ligand_smiles)) == len(record.ligand_smiles)
        assert record.reference_vina is not None and record.reference_vina < 0
        assert record.homology in ("homologous", "non_homologous")
        assert record.pocket_sequence
    assert synthetic_complexes(20, seed=2, with_sequences=True) == records


def test_chain_elements_are_drawn_as_choice_draws_them(monkeypatch):
    """The cumulative table bisected with one ``rng.random()`` picks what
    ``rng.choice(p=...)`` picks from the same stream, so every generated
    string and dataset is the same."""
    def generate():
        return (
            [smiles_corpus(40, seed=seed, min_heavy=3, max_heavy=24) for seed in range(20)],
            [synthetic_complexes(5, seed=seed, with_sequences=True) for seed in range(8)],
        )

    fast = generate()
    monkeypatch.setattr(synthetic, "_grow_chain", grow_chain_reference)
    assert generate() == fast


def test_readme_fixture_keeps_its_bytes(tmp_path):
    # scripts/make_fixture.py --pockets 50 --seed 0
    path = tmp_path / "complexes.jsonl"
    dump_records(path, synthetic_complexes(50, seed=0, max_heavy=10))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c248cdc90344b109ed392fecc98deb9c19dfd60157a195c03a6e49ba7d4ad141"
