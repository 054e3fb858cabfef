import pytest
from hypothesis import given

from molchord.molgraph import (
    count_fused_rings,
    cycle_edges,
    parse_smiles,
    perceive_rings,
    permute_atoms,
)

from .oracles import (
    all_simple_cycles,
    fused_ring_count_oracle,
    greedy_min_cycle_basis,
    perceive_rings_oracle,
)
from .strategies import ring_assemblies


def _edges(mol):
    return [b.key() for b in mol.bonds]


def test_benzene_single_ring():
    mol = parse_smiles("c1ccccc1")
    assert len(mol.rings) == 1
    assert len(mol.rings[0]) == 6


def test_acyclic_no_rings():
    assert parse_smiles("CCO").rings == []
    assert parse_smiles("CC(C)CC(=O)NC").rings == []


def test_naphthalene_rings_match_cycle_oracle():
    mol = parse_smiles("c1ccc2ccccc2c1")
    oracle_rings = greedy_min_cycle_basis(len(mol.atoms), _edges(mol))
    assert sorted(mol.rings) == sorted(oracle_rings)
    assert [len(r) for r in mol.rings] == [6, 6]
    shared = cycle_edges(mol.rings[0]) & cycle_edges(mol.rings[1])
    assert len(shared) == 1  # one fusion bond


def test_cyclomatic_identity_over_corpus():
    from molchord.synthetic import smiles_corpus

    for smiles in smiles_corpus(1000, seed=55, min_heavy=3, max_heavy=14):
        mol = parse_smiles(smiles)
        assert len(mol.rings) == mol.cyclomatic_number()
        for ring in mol.rings:
            assert len(set(ring)) == len(ring) >= 3


@pytest.mark.parametrize(
    "smiles, expected_by_oracle",
    [
        ("c1ccccc1", True),
        ("c1ccc2ccccc2c1", True),
        ("c1ccc(-c2ccccc2)cc1", True),
        ("C1CCC2(CC1)CCCC2", True),  # spiro: shares only an atom
        ("C1CC2CCC1CC2", True),  # bridged bicyclic
        ("C1CC1C1CC1CCC", True),
    ],
)
def test_fused_count_matches_oracle(smiles, expected_by_oracle):
    mol = parse_smiles(smiles)
    oracle = fused_ring_count_oracle(len(mol.atoms), _edges(mol))
    assert count_fused_rings(mol) == oracle


def test_fused_canonical_values():
    # independently derived: benzene has one ring (nothing to fuse with), the
    # naphthalene rings share a bond, biphenyl rings touch only through a
    # non-ring bond, spiro rings share only an atom
    assert count_fused_rings(parse_smiles("c1ccccc1")) == 0
    assert count_fused_rings(parse_smiles("c1ccc2ccccc2c1")) == 2
    assert count_fused_rings(parse_smiles("c1ccc(-c2ccccc2)cc1")) == 0
    assert count_fused_rings(parse_smiles("C1CCC2(CC1)CCCC2")) == 0
    assert count_fused_rings(parse_smiles("C1CC2CCC1CC2")) == 2


def test_ring_perception_deterministic_under_permutation(small_corpus, rng):
    for smiles in small_corpus[:40]:
        mol = parse_smiles(smiles)
        ring_shape = sorted(len(r) for r in mol.rings)
        fused = count_fused_rings(mol)
        for _ in range(5):
            perm = list(rng.permutation(len(mol.atoms)))
            permuted = perceive_rings(permute_atoms(mol, perm))
            assert sorted(len(r) for r in permuted.rings) == ring_shape
            assert count_fused_rings(permuted) == fused


def test_oracle_equivalence_on_small_molecules(small_corpus):
    checked = 0
    for smiles in small_corpus:
        mol = parse_smiles(smiles)
        if len(mol.atoms) > 12 or mol.component_count() != 1:
            continue
        assert count_fused_rings(mol) == fused_ring_count_oracle(len(mol.atoms), _edges(mol))
        checked += 1
    assert checked >= 100


def test_cycle_oracle_self_check():
    # sanity for the oracle itself: benzene has exactly one simple cycle,
    # naphthalene three (two faces plus their rim)
    benzene = parse_smiles("c1ccccc1")
    assert len(all_simple_cycles(6, _edges(benzene))) == 1
    naphthalene = parse_smiles("c1ccc2ccccc2c1")
    assert len(all_simple_cycles(10, _edges(naphthalene))) == 3


@given(ring_assemblies())
def test_ring_lists_match_whole_graph_search(mol):
    # skipping bridges and searching the ring subgraph keeps every ring
    assert mol.rings == perceive_rings_oracle(mol)


def test_ring_lists_match_whole_graph_search_on_corpus():
    from molchord.synthetic import smiles_corpus

    for smiles in smiles_corpus(3000, seed=5, min_heavy=3, max_heavy=40):
        mol = parse_smiles(smiles)
        assert mol.rings == perceive_rings_oracle(mol), smiles
