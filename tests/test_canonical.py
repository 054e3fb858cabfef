import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molchord.molgraph import (
    Atom,
    Bond,
    CanonicalizationLimit,
    canon,
    canonical_smiles,
    count_fused_rings,
    make_molecule,
    parse_smiles,
    try_canonicalize,
)

from .oracles import (
    _refine_oracle,
    canonical_signature,
    cyclomatic_number,
    exhaustive_canonical_signature,
    molecules_isomorphic,
    permute_atoms,
)

TBU = "C(C)(C)C"
CUBANE = "C12C3C4C1C5C2C3C45"
ADAMANTANE = "C1C2CC3CC1CC(C2)C3"
# Regular graphs whose refinement leaves one class that holds several orbits.
REGULAR_UNIONS = ("C1CC1.C1CC1.C1CCCCC1", "C1CCC1.C1CCCCCC1", CUBANE + ".C12C3C1C1C2C31")


def tbu_chain(groups: int, tail: int = 1) -> str:
    """Alkane chain with ``groups`` consecutive tert-butyl branches."""
    return "C" * tail + "C" + f"C({TBU})" * groups + "C"


def star(arms: int, arm: str) -> str:
    return "C" + f"({arm})" * (arms - 1) + arm


def dendron(depth: int) -> str:
    if depth == 0:
        return "C"
    sub = dendron(depth - 1)
    return f"C({sub}){sub}"


def dendrimer(core: str, arms: int, depth: int) -> str:
    return core + f"({dendron(depth)})" * (arms - 1) + dendron(depth)


# Highly symmetric graphs, each small enough for the unpruned oracle search.
symmetric_graphs = st.one_of(
    st.builds(tbu_chain, st.integers(1, 4), st.integers(1, 3)),
    st.builds(star, st.integers(2, 3), st.sampled_from([TBU, "C" + TBU])),  # tBu, neopentyl
    st.sampled_from([CUBANE, ADAMANTANE, *REGULAR_UNIONS]),
    st.builds(dendrimer, st.sampled_from(["C", "N"]), st.integers(2, 3), st.integers(1, 2)),
)


def _assert_permutation_invariant(mol, reference: str, rng, times: int) -> None:
    for _ in range(times):
        perm = [int(i) for i in rng.permutation(len(mol.atoms))]
        assert canonical_smiles(permute_atoms(mol, perm)) == reference


def test_same_graph_same_string():
    assert canonical_smiles(parse_smiles("OCC")) == canonical_smiles(parse_smiles("CCO"))
    assert canonical_smiles(parse_smiles("C(O)C")) == canonical_smiles(parse_smiles("CCO"))


def test_idempotent(small_corpus):
    for smiles in small_corpus[:60]:
        once = canonical_smiles(parse_smiles(smiles))
        assert canonical_smiles(parse_smiles(once)) == once


def test_permutation_invariance_twenty_atom_fixture(rng):
    fixture = "CCCCC(=O)Oc1ccc(CC(N)C(=O)O)cc1Cl"  # 20 heavy atoms
    mol = parse_smiles(fixture)
    assert len(mol.atoms) == 20
    reference = canonical_smiles(mol)
    seen = set()
    for _ in range(100):
        perm = list(rng.permutation(len(mol.atoms)))
        permuted = permute_atoms(mol, perm)
        seen.add(canonical_smiles(permuted))
    assert seen == {reference}


def test_round_trip_preserves_counts(small_corpus):
    for smiles in small_corpus:
        mol = parse_smiles(smiles)
        back = parse_smiles(canonical_smiles(mol))
        assert len(back.atoms) == len(mol.atoms)
        assert len(back.bonds) == len(mol.bonds)
        assert cyclomatic_number(back) == cyclomatic_number(mol)
        assert count_fused_rings(back) == count_fused_rings(mol)
        assert molecules_isomorphic(mol, back)


def test_class_function_small_molecules():
    probes = [
        "CCO", "OCC", "CCN", "CC=O", "CC(C)C", "CCCC", "C1CC1", "C1CCC1",
        "c1ccccc1", "C1=CC=CC=C1", "CC(N)=O", "CNC=O", "[NH4+]", "N",
        "CC(=O)O", "OC(=O)C", "C1CC1C", "CC1CC1",
    ]
    mols = [parse_smiles(s) for s in probes]
    for (s1, m1), (s2, m2) in itertools.combinations(zip(probes, mols), 2):
        same_string = canonical_smiles(m1) == canonical_smiles(m2)
        assert same_string == molecules_isomorphic(m1, m2), (s1, s2)


def test_signature_tracks_string(small_corpus):
    for smiles in small_corpus[:40]:
        mol = parse_smiles(smiles)
        assert (canonical_signature(mol) == canonical_signature(parse_smiles(smiles))) is True


def test_charge_and_hydrogen_emission():
    for text in ["[NH4+]", "C[N+](C)(C)C", "[O-]c1ccccc1", "[Fe+2]", "[SiH4]"]:
        out = canonical_smiles(parse_smiles(text))
        back = parse_smiles(out)
        assert canonical_smiles(back) == out
        assert molecules_isomorphic(parse_smiles(text), back)


def test_biphenyl_single_bond_survives():
    out = canonical_smiles(parse_smiles("c1ccc(-c2ccccc2)cc1"))
    mol = parse_smiles(out)
    assert count_fused_rings(mol) == 0
    assert cyclomatic_number(mol) == 2


def test_disconnected_components_sorted():
    a = canonical_smiles(parse_smiles("CCO.[Na+]"))
    b = canonical_smiles(parse_smiles("[Na+].OCC"))
    assert a == b
    assert "." in a


def test_ring_closure_digit_reuse():
    # three separate rings reuse digit 1 after it closes
    out = canonical_smiles(parse_smiles("C1CC1C1CC1C1CC1"))
    back = parse_smiles(out)
    assert cyclomatic_number(back) == 3


def test_class_function_on_adversarial_graphs():
    """Random labeled graphs (valence ignored) plus classic regular near-twins:
    canonical strings must separate exactly the non-isomorphic ones."""
    from molchord.molgraph import Atom, Bond, BondOrder, make_molecule

    rng = np.random.default_rng(12345)
    elements = ["C", "N", "O", "S"]

    def random_graph(n, extra_edges):
        atoms = [Atom(element=elements[rng.integers(len(elements))]) for _ in range(n)]
        edges = set()
        order = list(rng.permutation(n))
        for i in range(1, n):
            a, b = order[i], order[int(rng.integers(i))]
            edges.add((min(a, b), max(a, b)))
        attempts = 0
        while len(edges) < n - 1 + extra_edges and attempts < 50:
            a, b = rng.integers(n), rng.integers(n)
            attempts += 1
            if a != b:
                edges.add((min(a, b), max(a, b)))
        bonds = [Bond(a, b, BondOrder(int(rng.choice([1, 1, 1, 2])))) for a, b in sorted(edges)]
        return make_molecule(atoms, bonds)

    mols = [random_graph(int(rng.integers(2, 9)), int(rng.integers(0, 4))) for _ in range(150)]
    carbons = lambda n: [Atom(element="C") for _ in range(n)]
    for n in range(3, 8):  # plain cycles
        mols.append(make_molecule(carbons(n), [Bond(i, (i + 1) % n) for i in range(n)]))
    # complete graph, 3-cube, and the K3,3 / prism pair (3-regular near-twins)
    mols.append(make_molecule(carbons(4), [Bond(i, j) for i in range(4) for j in range(i + 1, 4)]))
    cube = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]
    mols.append(make_molecule(carbons(8), [Bond(a, b) for a, b in cube]))
    k33 = [Bond(i, j) for i in range(3) for j in range(3, 6)]
    prism = [Bond(*e) for e in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]]
    mols.append(make_molecule(carbons(6), k33))
    mols.append(make_molecule(carbons(6), prism))

    canon = [canonical_smiles(m) for m in mols]
    assert canon[-2] != canon[-1]  # K3,3 vs prism
    for mol, reference in zip(mols, canon):
        for _ in range(5):
            perm = list(rng.permutation(len(mol.atoms)))
            assert canonical_smiles(permute_atoms(mol, perm)) == reference

    from collections import defaultdict

    by_profile = defaultdict(list)
    for i, mol in enumerate(mols):
        key = (
            len(mol.atoms),
            len(mol.bonds),
            tuple(sorted(a.label() for a in mol.atoms)),
            tuple(sorted(int(b.order) for b in mol.bonds)),
        )
        by_profile[key].append(i)
    for bucket in by_profile.values():
        for i, j in itertools.combinations(bucket, 2):
            assert (canon[i] == canon[j]) == molecules_isomorphic(mols[i], mols[j])


def test_symmetric_molecules():
    # highly symmetric inputs still produce one label
    for text in ["C1CCCCC1", "c1ccccc1", "C(C)(C)(C)C", "C1CC2CCC1CC2"]:
        mol = parse_smiles(text)
        reference = canonical_smiles(mol)
        rng = np.random.default_rng(7)
        for _ in range(20):
            perm = list(rng.permutation(len(mol.atoms)))
            assert canonical_smiles(permute_atoms(mol, perm)) == reference


@settings(max_examples=40)
@given(symmetric_graphs, st.integers(0, 2**32 - 1))
def test_symmetric_graphs_match_exhaustive_search(smiles, seed):
    mol = parse_smiles(smiles)
    assert canonical_signature(mol) == exhaustive_canonical_signature(mol)
    _assert_permutation_invariant(mol, canonical_smiles(mol), np.random.default_rng(seed), 20)


@pytest.mark.parametrize("groups", [6, 8])
def test_long_tert_butyl_chains(groups):
    mol = parse_smiles(tbu_chain(groups))
    reference = canonical_smiles(mol)
    assert molecules_isomorphic(parse_smiles(reference), mol)
    _assert_permutation_invariant(mol, reference, np.random.default_rng(groups), 20)


def test_tert_butyl_chain_of_twenty_groups_stays_under_the_work_cap():
    mol = parse_smiles(tbu_chain(20, tail=9))
    reference = canonical_smiles(mol)
    assert molecules_isomorphic(parse_smiles(reference), mol)
    _assert_permutation_invariant(mol, reference, np.random.default_rng(20), 1)


def test_many_identical_components_reach_the_work_cap(deadline):
    # k identical components cost about k**2 / 2 search nodes and only a few
    # leaves: 400 methanes took about 20 s before the work cap
    with deadline(1.0), pytest.raises(CanonicalizationLimit, match="400 atoms"):
        canonical_smiles(parse_smiles(".".join(["C"] * 400)))


# 120 fused rings whose canonical string keeps more than 99 closures open
TOO_MANY_OPEN_CLOSURES = "C0CCC1C(C0)" + "CC0C(C1)CC1C(C0)" * 59 + "CCCC1"


def test_too_many_open_ring_closures_is_a_canonicalization_limit():
    mol = parse_smiles(TOO_MANY_OPEN_CLOSURES)
    assert count_fused_rings(mol) == 120
    with pytest.raises(CanonicalizationLimit, match="99 simultaneously open"):
        canonical_smiles(mol)
    assert try_canonicalize(TOO_MANY_OPEN_CLOSURES) is None


def test_writer_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"recursion limit set to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert canonical_smiles(parse_smiles("C" * 3000)) == "C" * 3000
    # A 1500-carbon backbone with a chlorine on every carbon but one end is
    # written from that end as 1498 nested branches.
    k = 1500
    atoms = [Atom("C")] * k + [Atom("Cl")] * (k - 1)
    bonds = [Bond(i, i + 1) for i in range(k - 1)] + [Bond(i, k + i) for i in range(k - 1)]
    expected = "C" + "C(" * (k - 2) + "C" + "Cl)" * (k - 2) + "Cl"
    assert canonical_smiles(make_molecule(atoms, bonds)) == expected


@given(st.integers(0, 2**32 - 1))
def test_refine_numbers_classes_like_synchronous_rounds(seed):
    """The dense numbering decides which leaf is minimal, so it must match
    rekeying every atom each round, also after individualizing one atom."""
    rnd = random.Random(seed)
    n = rnd.randint(1, 24)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edges = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(rnd.randint(0, 2 * n)) if n > 1}
    for a, b in edges:
        order = rnd.choice([1, 1, 2, 3, 4])
        adj[a].append((b, order))
        adj[b].append((a, order))
    weighted = [[(b, order * n) for b, order in row] for row in adj]
    colors = canon._dense([rnd.randrange(rnd.randint(1, n)) for _ in range(n)])
    refined = _refine_oracle(colors, adj)
    assert canon._refine(colors, weighted) == refined
    tied = sorted({c for c in refined if refined.count(c) > 1})
    if tied:
        atom_idx = rnd.choice([a for a in range(n) if refined[a] == tied[0]])
        promoted = [c if c < tied[0] else c + 1 for c in refined]
        promoted[atom_idx] = tied[0]
        assert canon._refine(promoted, weighted, [atom_idx]) == _refine_oracle(promoted, adj)

