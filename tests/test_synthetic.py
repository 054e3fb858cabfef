import numpy as np

from molchord.molgraph import parse_smiles, validate_valence
from molchord.synthetic import (
    random_molecule,
    smiles_corpus,
    synthetic_complexes,
)

from .oracles import component_count


def test_generated_molecules_are_valid_and_bounded():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mol = random_molecule(rng, min_heavy=3, max_heavy=12)
        assert 3 <= len(mol.atoms) <= 12
        assert validate_valence(mol) == []
        assert component_count(mol) == 1


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
