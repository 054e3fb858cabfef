import pytest
from hypothesis import given
from hypothesis import strategies as st

from molchord.molgraph import (
    WidthMismatch,
    morgan_fingerprint,
    parse_smiles,
    tanimoto,
)

from .oracles import (
    brute_tanimoto,
    fingerprint_from_bits,
    morgan_bits_oracle,
    on_bits,
    permute_atoms,
)
from .strategies import ring_assemblies

bit_sets = st.sets(st.integers(min_value=0, max_value=255), max_size=40)


def test_identical_molecules_identical_fingerprints():
    a = morgan_fingerprint(parse_smiles("CC(=O)Oc1ccccc1"))
    b = morgan_fingerprint(parse_smiles("CC(=O)Oc1ccccc1"))
    assert a == b


def test_radius_zero_distinguishes_elements():
    fp_c = morgan_fingerprint(parse_smiles("C"), radius=0)
    fp_o = morgan_fingerprint(parse_smiles("O"), radius=0)
    assert fp_c.bits != fp_o.bits


def test_benzene_naphthalene_share_aromatic_carbon_bit():
    benzene = morgan_fingerprint(parse_smiles("c1ccccc1"), radius=0)
    naphthalene = morgan_fingerprint(parse_smiles("c1ccc2ccccc2c1"), radius=0)
    shared = benzene.bits & naphthalene.bits
    assert shared != 0  # degree-2 aromatic carbons appear in both
    assert benzene.bits != naphthalene.bits  # fusion carbons differ


def test_permutation_invariance(small_corpus, rng):
    for smiles in small_corpus[:30]:
        mol = parse_smiles(smiles)
        reference = morgan_fingerprint(mol)
        for _ in range(3):
            perm = list(rng.permutation(len(mol.atoms)))
            permuted = permute_atoms(mol, perm)
            assert morgan_fingerprint(permuted) == reference


def test_radius_growth_adds_bits():
    mol = parse_smiles("CCOC(=O)c1ccccc1")
    f0 = morgan_fingerprint(mol, radius=0)
    f2 = morgan_fingerprint(mol, radius=2)
    assert f0.bits & f2.bits == f0.bits
    assert f2.bits.bit_count() > f0.bits.bit_count()


def test_parameter_validation():
    mol = parse_smiles("CC")
    with pytest.raises(ValueError):
        morgan_fingerprint(mol, radius=-1)
    with pytest.raises(ValueError):
        morgan_fingerprint(mol, nbits=100)
    with pytest.raises(ValueError):
        morgan_fingerprint(mol, nbits=32)


def test_tanimoto_examples():
    a = fingerprint_from_bits({1, 2, 3})
    b = fingerprint_from_bits({2, 3, 4})
    assert tanimoto(a, b) == 0.5
    assert tanimoto(a, a) == 1.0
    assert tanimoto(a, fingerprint_from_bits({10, 11})) == 0.0
    assert tanimoto(fingerprint_from_bits(set()), fingerprint_from_bits(set())) == 1.0


def test_width_mismatch():
    with pytest.raises(WidthMismatch):
        tanimoto(fingerprint_from_bits({1}, nbits=64), fingerprint_from_bits({1},
                 nbits=128))


@given(bit_sets, bit_sets)
def test_tanimoto_matches_brute_force(a, b):
    fa, fb = fingerprint_from_bits(a, 256), fingerprint_from_bits(b, 256)
    assert tanimoto(fa, fb) == pytest.approx(brute_tanimoto(a, b), abs=1e-15)
    assert tanimoto(fa, fb) == tanimoto(fb, fa)
    assert 0.0 <= tanimoto(fa, fb) <= 1.0


@given(bit_sets)
def test_tanimoto_reflexive(a):
    fa = fingerprint_from_bits(a, 256)
    assert tanimoto(fa, fa) == 1.0


def test_on_bits_round_trip():
    bits = {0, 63, 64, 200, 255}
    fp = fingerprint_from_bits(bits, 256)
    assert set(on_bits(fp)) == bits
    assert fp.bits.bit_count() == len(bits)


@given(ring_assemblies(), st.integers(0, 3), st.sampled_from([64, 2048]))
def test_bits_match_part_by_part_hashing(mol, radius, nbits):
    assert morgan_fingerprint(mol, radius, nbits).bits == morgan_bits_oracle(mol, radius, nbits)


def test_bits_match_part_by_part_hashing_on_corpus():
    from molchord.synthetic import smiles_corpus

    for smiles in smiles_corpus(3000, seed=5, min_heavy=3, max_heavy=40):
        mol = parse_smiles(smiles)
        assert morgan_fingerprint(mol).bits == morgan_bits_oracle(mol), smiles


def test_charged_and_hydrogen_bracket_atoms_match_oracle():
    # charges and explicit hydrogens reach the cached radius-0 invariants
    for smiles in ("C[NH3+]", "c1ccncc1[NH3+]", "[O-]C(=O)C", "C[N+](C)(C)C"):
        mol = parse_smiles(smiles)
        assert morgan_fingerprint(mol).bits == morgan_bits_oracle(mol), smiles
