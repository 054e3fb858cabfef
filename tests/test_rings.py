import itertools

import numpy as np
import pytest
from hypothesis import given

from molchord.molgraph import (
    Atom,
    Bond,
    count_fused_rings,
    make_molecule,
    parse_smiles,
)
from molchord.molgraph.rings import ring_bonds

from .oracles import (
    all_simple_cycles,
    component_count,
    cyclomatic_number,
    fused_among,
    fused_ring_count_oracle,
    greedy_min_cycle_basis,
    perceive_rings_oracle,
    permute_atoms,
    ring_edges,
)
from .strategies import NAMED_RING_SYSTEMS, ring_assemblies


def _edges(mol):
    return [b.key() for b in mol.bonds]


def _ring_bond_keys(mol):
    return {b.key() for b, flag in zip(mol.bonds, ring_bonds(mol)) if flag}


def _carbons(n_atoms, edges):
    return make_molecule([Atom("C") for _ in range(n_atoms)], [Bond(a, b) for a, b in edges])


def test_benzene_single_ring():
    mol = parse_smiles("c1ccccc1")
    rings = greedy_min_cycle_basis(len(mol.atoms), _edges(mol))
    assert cyclomatic_number(mol) == 1
    assert [len(r) for r in rings] == [6]


def test_acyclic_no_rings():
    for smiles in ("CCO", "CC(C)CC(=O)NC"):
        mol = parse_smiles(smiles)
        assert cyclomatic_number(mol) == 0
        assert not any(ring_bonds(mol))
        assert count_fused_rings(mol) == 0


def test_naphthalene_rings_match_cycle_oracle():
    mol = parse_smiles("c1ccc2ccccc2c1")
    oracle_rings = greedy_min_cycle_basis(len(mol.atoms), _edges(mol))
    assert cyclomatic_number(mol) == len(oracle_rings)
    assert [len(r) for r in oracle_rings] == [6, 6]
    shared = ring_edges(oracle_rings[0]) & ring_edges(oracle_rings[1])
    assert len(shared) == 1  # one fusion bond
    assert count_fused_rings(mol) == 2


def test_cyclomatic_identity_over_corpus():
    from molchord.synthetic import smiles_corpus

    for smiles in smiles_corpus(1000, seed=55, min_heavy=3, max_heavy=14):
        mol = parse_smiles(smiles)
        rings = greedy_min_cycle_basis(len(mol.atoms), _edges(mol))
        assert len(rings) == cyclomatic_number(mol)
        for ring in rings:
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
        fused = count_fused_rings(mol)
        on_ring = _ring_bond_keys(mol)
        for _ in range(5):
            perm = [int(p) for p in rng.permutation(len(mol.atoms))]
            permuted = permute_atoms(mol, perm)
            assert cyclomatic_number(permuted) == cyclomatic_number(mol)
            assert count_fused_rings(permuted) == fused
            assert _ring_bond_keys(permuted) == {
                tuple(sorted((perm[a], perm[b]))) for a, b in on_ring
            }


def test_oracle_equivalence_on_small_molecules(small_corpus):
    checked = 0
    for smiles in small_corpus:
        mol = parse_smiles(smiles)
        if len(mol.atoms) > 12 or component_count(mol) != 1:
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


def _assert_blocks_match_rings(mol):
    rings = perceive_rings_oracle(mol)
    assert count_fused_rings(mol) == fused_among(rings)
    assert _ring_bond_keys(mol) == set().union(*map(ring_edges, rings))


@given(ring_assemblies())
def test_ring_lists_match_whole_graph_search(mol):
    # the block sums give the smallest set of smallest rings' fused count,
    # and its ring bonds are exactly the bonds that are not bridges
    _assert_blocks_match_rings(mol)


def test_ring_lists_match_whole_graph_search_on_corpus():
    from molchord.synthetic import smiles_corpus

    for smiles in smiles_corpus(3000, seed=5, min_heavy=3, max_heavy=40):
        _assert_blocks_match_rings(parse_smiles(smiles))


def _named_graphs():
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    yield "K4", _carbons(4, itertools.combinations(range(4), 2))
    yield "K5", _carbons(5, itertools.combinations(range(5), 2))
    yield "K3,3", _carbons(6, k33)
    yield "prism", _carbons(6, prism)
    for smiles in NAMED_RING_SYSTEMS + ("C1CC2(C1)CC21CC1",):  # cubane .. spiro chain
        yield smiles, parse_smiles(smiles)


def _random_graphs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 10))
        density = rng.uniform(0.1, 0.45)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < density]
        yield _carbons(n, pairs)


def test_block_sum_matches_fused_count_oracle():
    # spiro[4.5]decane and the spiro chain hold bridge-free components of
    # cyclomatic number 2 and 3 whose rings share no bond: a count over
    # bridge-free components instead of blocks gives 2 and 3, not 0
    graphs = list(_named_graphs()) + [("random", m) for m in _random_graphs(400, seed=9)]
    for name, mol in graphs:
        oracle = fused_ring_count_oracle(len(mol.atoms), _edges(mol))
        assert count_fused_rings(mol) == oracle, name
    fused = {name: count_fused_rings(mol) for name, mol in _named_graphs()}
    assert fused["K4"] == 3 and fused["K5"] == 6 and fused["K3,3"] == 4
    assert fused["prism"] == 4 and fused["C12C3C4C1C5C2C3C45"] == 5
    assert fused["C1CCC2(CC1)CCCC2"] == fused["C1CC2(C1)CC21CC1"] == 0
